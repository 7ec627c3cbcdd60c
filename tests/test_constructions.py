"""Constructions: explicit families, extension, and member classification."""

from itertools import combinations

import pytest

from signedfam import (
    ForbiddenSpec,
    Profile,
    SignedVector,
    VectorFamily,
    enumerate_all,
    is_shifted,
    scalar_product,
    verify_family,
)
from signedfam import constructions, formulas
from signedfam.constructions import classify_vector


def v(text):
    return SignedVector.parse(text)


class TestEkrFamily:
    def test_size_and_shape(self):
        fam = constructions.ekr_family(Profile(4, 2, 1))
        assert len(fam) == 6
        assert len(fam) == formulas.g_ekr_value(4, 2, 1).value
        for member in fam:
            assert member.pos & 1  # +1 at coordinate 1

    def test_shifted_and_avoiding(self):
        fam = constructions.ekr_family(Profile(5, 2, 1))
        assert is_shifted(fam)
        report = verify_family(fam, ForbiddenSpec.exact({-2}))
        assert report.ok

    def test_avoids_floor_at_larger_profile(self):
        fam = constructions.ekr_family(Profile(6, 3, 2))
        assert len(fam) == 30
        assert verify_family(fam, ForbiddenSpec.exact({-4})).ok

    def test_requires_a_plus(self):
        with pytest.raises(ValueError):
            constructions.ekr_family(Profile(4, 0, 2))


class TestInductiveExtend:
    def test_grows_by_increment_count(self):
        base = constructions.ekr_family(Profile(4, 2, 1))
        grown = constructions.inductive_extend(base)
        assert grown.profile == Profile(5, 2, 1)
        assert len(grown) == 12
        assert len(grown) - len(base) == formulas.increment_value(4, 2, 1).value

    def test_result_still_avoids_floor(self):
        base = constructions.ekr_family(Profile(5, 3, 2))
        grown = constructions.inductive_extend(base)
        assert verify_family(grown, ForbiddenSpec.exact({-4})).ok

    def test_double_extension_hits_known_extremum(self):
        fam = constructions.ekr_family(Profile(4, 2, 1))
        for _ in range(2):
            fam = constructions.inductive_extend(fam)
        assert fam.profile.n == 6
        assert len(fam) == 22  # matches the closed form at (6, 2, 1)
        assert len(fam) == formulas.g_closed_l1(6, 2)

    def test_requires_a_minus(self):
        fam = VectorFamily(Profile(3, 2, 0), [v("++0")])
        with pytest.raises(ValueError):
            constructions.inductive_extend(fam)


class TestSplitFamily:
    def test_explicit_small_case(self):
        fam = constructions.split_family(Profile(4, 2, 1), [1, 2, 3])
        assert {str(m) for m in fam} == {"++0-", "+0+-", "0++-"}

    def test_products_never_negative(self):
        fam = constructions.split_family(Profile(6, 2, 2), [1, 2, 4])
        assert verify_family(fam, ForbiddenSpec.all_below(0)).ok

    def test_best_cut_size_matches_split_count(self):
        n, k, l = 7, 2, 1
        value, x = formulas.p_split(n, k, l)
        fam = constructions.split_family(Profile(n, k, l), range(1, x + 1))
        assert len(fam) == value

    def test_side_too_small(self):
        with pytest.raises(ValueError, match="at least k"):
            constructions.split_family(Profile(5, 3, 1), [1, 2])
        with pytest.raises(ValueError, match="at least l"):
            constructions.split_family(Profile(5, 3, 2), [1, 2, 3, 4])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            constructions.split_family(Profile(4, 2, 1), [0, 1, 2])

    def test_index_out_of_range_is_named(self):
        with pytest.raises(ValueError, match=r"index 5 out of range \[1, 4\]"):
            constructions.split_family(Profile(4, 2, 1), [1, 2, 5])


def _profiles(max_n):
    return [
        Profile(n, k, l)
        for n in range(1, max_n + 1)
        for k in range(1, n + 1)
        for l in range(0, n - k + 1)
    ]


def _side_filter(profile, plus_side):
    """The split family by its definition: plus support inside the side, minus outside."""
    side = sum(1 << (i - 1) for i in plus_side)
    return [w for w in enumerate_all(profile) if w.pos & ~side == 0 and w.neg & side == 0]


class TestConstructionsMatchDefinitions:
    """Each construction against its definition filtered from the whole class, n <= 7."""

    def test_ekr_family_is_plus_at_coordinate_one(self):
        for p in _profiles(7):
            expected = [w for w in enumerate_all(p) if w.pos & 1]
            assert constructions.ekr_family(p).members == tuple(expected), p

    def test_split_family_on_prefix_and_non_prefix_sides(self):
        for p in _profiles(7):
            odd = range(1, p.n + 1, 2)
            sides = [range(1, x + 1) for x in range(p.k, p.n - p.l + 1)]
            if p.k <= len(odd) and p.l <= p.n - len(odd):
                sides.append(odd)
            for side in sides:
                fam = constructions.split_family(p, side)
                assert fam.members == tuple(_side_filter(p, side)), (p, list(side))

    def test_extension_adds_every_vector_ending_in_minus(self):
        for p in _profiles(7):
            if p.l < 1:
                continue
            base = constructions.ekr_family(p)
            lifted = [SignedVector(p.n + 1, w.pos, w.neg) for w in base]
            bigger = Profile(p.n + 1, p.k, p.l)
            added = [w for w in enumerate_all(bigger) if w.last == -1]
            expected = VectorFamily(bigger, lifted + added)
            assert constructions.inductive_extend(base).members == expected.members, p

    def test_best_split_family_takes_the_best_prefix(self):
        for p in _profiles(7):
            value, x = formulas.p_split(p.n, p.k, p.l)
            fam = constructions.best_split_family(p)
            assert len(fam) == value, p
            assert fam.members == tuple(_side_filter(p, range(1, x + 1))), p
            plus_side = 0
            for w in fam:
                plus_side |= w.pos
            assert plus_side == (1 << x) - 1, p


def _loop_enumerate_all(p):
    """Reference: the class from nested loops over supports and their plus subsets, sorted."""
    masks = []
    for support in combinations([1 << i for i in range(p.n)], p.k + p.l):
        for plus in combinations(support, p.k):
            masks.append((sum(plus), sum(support) ^ sum(plus)))
    return sorted(masks)


def _loop_ekr(p):
    masks = []
    for rest in combinations([1 << i for i in range(1, p.n)], p.k + p.l - 1):
        for minus in combinations(rest, p.l):
            masks.append(((1 + sum(rest)) ^ sum(minus), sum(minus)))
    return sorted(masks)


def _loop_extend(fam):
    p = fam.profile
    masks = list(fam.masks)
    for support in combinations([1 << i for i in range(p.n)], p.k + p.l - 1):
        for minus in combinations(support, p.l - 1):
            masks.append((sum(support) ^ sum(minus), sum(minus) | 1 << p.n))
    return sorted(masks)


def _loop_best_split(p):
    x = formulas.p_split(p.n, p.k, p.l).argmax
    minus_masks = [sum(c) for c in combinations([1 << i for i in range(x, p.n)], p.l)]
    masks = []
    for plus in combinations([1 << i for i in range(x)], p.k):
        masks.extend((sum(plus), neg) for neg in minus_masks)
    return sorted(masks)


class TestCanonicalOrderBuilders:
    """Each builder's pairs equal the nested loops' pairs, sorted, on every profile with n <= 10."""

    def test_class_and_constructions(self):
        for p in _profiles(10):
            assert list(enumerate_all(p).masks) == _loop_enumerate_all(p), p
            assert list(constructions.best_split_family(p).masks) == _loop_best_split(p), p
            ekr = constructions.ekr_family(p)
            assert list(ekr.masks) == _loop_ekr(p), p
            if p.l >= 1:
                for base in (ekr, enumerate_all(p)):
                    grown = constructions.inductive_extend(base)
                    assert list(grown.masks) == _loop_extend(base), p


class TestTrustedBuildersMatchCheckedConstructor:
    """The builders skip VectorFamily's checks; on every profile with n <= 7
    the checked constructor, given their members, returns the same members
    in the same order."""

    @staticmethod
    def assert_as_checked(fam):
        checked = VectorFamily(fam.profile, list(fam.members))
        assert fam.members == checked.members, fam
        assert fam == checked and hash(fam) == hash(checked), fam

    def test_class_and_constructions(self):
        for p in _profiles(7):
            for fam in (
                enumerate_all(p),
                constructions.ekr_family(p),
                constructions.best_split_family(p),
                *constructions.partition_by_last(enumerate_all(p)),
            ):
                self.assert_as_checked(fam)
            if p.l >= 1:
                self.assert_as_checked(constructions.inductive_extend(constructions.ekr_family(p)))
            odd = range(1, p.n + 1, 2)
            if p.k <= len(odd) and p.l <= p.n - len(odd):
                self.assert_as_checked(constructions.split_family(p, odd))

    def test_window_classes(self):
        for p in _profiles(7):
            for t in range(1, min(p.k, p.n // 2) + 1):
                for m in range(0, 2 * t):
                    for fam in constructions.xy_families(p, t, m):
                        self.assert_as_checked(fam)


class TestPartitionByLast:
    def test_full_class_split(self):
        p = Profile(3, 1, 1)
        minus, zero, plus = constructions.partition_by_last(
            VectorFamily(p, list(enumerate_all(p)))
        )
        assert (len(minus), len(zero), len(plus)) == (2, 2, 2)
        for m in minus:
            assert m.last == -1
        for z in zero:
            assert z.last == 0
        for q in plus:
            assert q.last == 1

    def test_parts_cover_input(self):
        fam = constructions.ekr_family(Profile(5, 2, 1))
        parts = constructions.partition_by_last(fam)
        assert sum(len(part) for part in parts) == len(fam)


class TestFamilyXYtm:
    def test_frozen_sizes(self):
        p = Profile(8, 2, 1)
        assert len(constructions.family_xy_tm(p, 1, 0, "x")) == 15
        assert len(constructions.family_xy_tm(p, 1, 0, "y")) == 6

    def test_balanced_case(self):
        p = Profile(9, 3, 2)
        assert len(constructions.family_xy_tm(p, 2, 0, "x")) == 30
        assert len(constructions.family_xy_tm(p, 2, 0, "y")) == 30

    def test_sizes_match_closed_form(self):
        # ambient dimension is n + 1 in the closed form
        for n, k, l, t, m in [(7, 2, 1, 1, 0), (8, 3, 2, 2, 0), (9, 3, 1, 2, 1)]:
            p = Profile(n + 1, k, l)
            x_size, y_size = formulas.xy_family_sizes(n, k, l, t, m)
            assert len(constructions.family_xy_tm(p, t, m, "x")) == x_size
            assert len(constructions.family_xy_tm(p, t, m, "y")) == y_size

    def test_members_match_string_filter(self):
        # independent re-derivation straight off the sign strings
        p = Profile(6, 2, 1)
        t, m = 2, 0
        want = set()
        for u in enumerate_all(p):
            s = str(u)
            window = s[: 2 * t - 1]
            if s[-1] == "+" and window.count("-") == m and window.count("+") == t:
                want.add(u)
        got = set(constructions.family_xy_tm(p, t, m, "y"))
        assert got == want

    def test_matches_window_count_definition(self):
        # the literal window counts, written out per side, on every class with n <= 9
        checked = 0
        for p in _profiles(9):
            members = enumerate_all(p).members
            for t in range(1, min(p.k, p.n // 2) + 1):
                window = (1 << (2 * t - 1)) - 1
                mu = max(t - (p.k - p.l), 0)
                for m in range(0, 2 * t):
                    want_y = [
                        u
                        for u in members
                        if u.last == 1
                        and (u.neg & window).bit_count() == m
                        and (u.pos & window).bit_count() == t
                    ]
                    want_x = [
                        u
                        for u in members
                        if u.last == -1
                        and (u.pos & window).bit_count() == m
                        and (u.neg & window).bit_count() == mu
                    ]
                    for side, want in (("y", want_y), ("x", want_x)):
                        got = constructions.family_xy_tm(p, t, m, side).members
                        assert got == tuple(want), (p, t, m, side)
                        checked += 1
        assert checked == 3048

    def test_window_cannot_reach_last_coordinate(self):
        with pytest.raises(ValueError, match="final coordinate"):
            constructions.family_xy_tm(Profile(5, 3, 1), 3, 0, "x")

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            constructions.family_xy_tm(Profile(6, 2, 1), 1, 0, "z")


class TestClassifyVector:
    def test_b1_immediate_window(self):
        label = classify_vector(v("++--+"))
        assert label.kind == "B1"
        assert (label.t, label.m) == (1, 0)
        assert label.in_b1_prime
        assert label.markers == (3, 2)

    def test_b1_zero_gap(self):
        label = classify_vector(v("+-0-+"))
        assert (label.kind, label.t, label.m) == ("B1", 1, 0)

    def test_b1_wider_window_inside_prime(self):
        # t = 2 <= k - l keeps it in the restricted class despite m = 1
        label = classify_vector(v("-++000+"))
        assert (label.kind, label.t, label.m) == ("B1", 2, 1)
        assert label.in_b1_prime
        assert label.markers is None

    def test_b1_outside_prime(self):
        label = classify_vector(v("-++-00+"))
        assert (label.kind, label.t, label.m) == ("B1", 2, 1)
        assert not label.in_b1_prime

    def test_b2_cases(self):
        label = classify_vector(v("0+0+--+"))
        assert label.kind == "B2"
        assert (label.j, label.jprime) == (2, 5)
        assert label.cond12
        label = classify_vector(v("00--+"))
        assert (label.kind, label.j, label.jprime) == ("B2", 2, 3)

    def test_unclassified(self):
        assert classify_vector(v("-+")).kind == "unclassified"

    def test_requires_plus_last(self):
        with pytest.raises(ValueError):
            classify_vector(v("+-0"))
        with pytest.raises(ValueError):
            classify_vector(v("+-"))

    def test_b1_and_b2_are_exclusive(self):
        # every plus-final vector gets exactly one kind
        for u in enumerate_all(Profile(6, 2, 2)):
            if u.last != 1:
                continue
            label = classify_vector(u)
            if label.kind == "B1":
                assert label.j is None
            elif label.kind == "B2":
                assert label.t is None

    def test_b1_window_is_minimal(self):
        # no smaller window already holds its index count of pluses
        for u in enumerate_all(Profile(7, 3, 1)):
            if u.last != 1:
                continue
            label = classify_vector(u)
            if label.kind != "B1":
                continue
            s = str(u)
            for smaller in range(1, label.t):
                assert s[: 2 * smaller - 1].count("+") != smaller


class TestClassAgainstWindowFamilies:
    def test_b1_members_populate_y_classes(self):
        # B1 vectors with window stats (t, m) are exactly the plus-final
        # window class members of the same stats
        p = Profile(7, 2, 1)
        for t, m in [(1, 0), (2, 0), (2, 1)]:
            y_fam = set(constructions.family_xy_tm(p, t, m, "y"))
            b1 = {
                u
                for u in enumerate_all(p)
                if u.last == 1
                and (lambda lab: lab.kind == "B1" and (lab.t, lab.m) == (t, m))(
                    classify_vector(u)
                )
            }
            # classification pins m inside [1, t]; the window class counts
            # minuses over all of [1, 2t-1], so B1 refines the class
            assert b1 <= y_fam or t == 1
            if t == 1:
                assert b1 == y_fam
