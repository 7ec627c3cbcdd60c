"""Shift moves, the dominance order, and family compression."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from signedfam.shifting import (
    _potential,
    compress,
    down_set_oracle,
    is_shifted,
    precedes,
    precedes_oracle,
    shift_covers,
    shift_ij,
)
from signedfam.solver import ForbiddenSpec, verify_family
from signedfam.vectors import Profile, SignedVector, VectorFamily, enumerate_all


def v(s: str) -> SignedVector:
    return SignedVector.parse(s)


class TestShiftMove:
    def test_basic_swap(self):
        assert shift_ij(v("-+"), 1, 2) == v("+-")
        assert shift_ij(v("0+-"), 1, 2) == v("+0-")
        assert shift_ij(v("0+-"), 2, 3) == v("0+-")  # already sorted

    def test_fixed_when_ordered(self):
        # a >= b leaves the vector alone
        assert shift_ij(v("+-"), 1, 2) == v("+-")
        assert shift_ij(v("00"), 1, 2) == v("00")

    def test_invalid_moves(self):
        with pytest.raises(ValueError):
            shift_ij(v("+-"), 2, 1)
        with pytest.raises(ValueError):
            shift_ij(v("+-"), 1, 3)
        with pytest.raises(ValueError):
            shift_ij(v("+-"), 0, 2)

    def test_profile_preserved(self):
        for w in enumerate_all(Profile(5, 2, 2)):
            for i, j in combinations(range(1, 6), 2):
                img = shift_ij(w, i, j)
                assert (img.k, img.l) == (w.k, w.l)

    def test_matches_max_min_rule(self):
        # every vector of {0,+1,-1}^n for n <= 5 and every i < j; an
        # unmoved image must be v itself, as precedes_oracle and compress
        # skip images by identity
        for n in range(2, 6):
            for values in product((1, 0, -1), repeat=n):
                w = SignedVector.from_supports(
                    n,
                    [p for p, x in enumerate(values, 1) if x == 1],
                    [p for p, x in enumerate(values, 1) if x == -1],
                )
                for i, j in combinations(range(1, n + 1), 2):
                    img = shift_ij(w, i, j)
                    a, b = values[i - 1], values[j - 1]
                    want = list(values)
                    want[i - 1], want[j - 1] = max(a, b), min(a, b)
                    assert img.values() == tuple(want), (w, i, j)
                    assert (img is w) == (a >= b), (w, i, j)

    def test_covers_match_their_definition(self):
        # shift_covers, the rule the solver's closure uses, against the
        # (i <- j)-shifts with v_i < v_j and no coordinate strictly between
        # valued in [v_i, v_j], applied by shift_ij, over all of
        # {0,+1,-1}^n for n <= 6
        vectors = 0
        for n in range(1, 7):
            full = (1 << n) - 1
            for pos in range(1 << n):
                for neg in range(1 << n):
                    if pos & neg:
                        continue
                    w = SignedVector(n, pos, neg)
                    x = w.values()
                    covers = {
                        shift_ij(w, i, j)
                        for i, j in combinations(range(1, n + 1), 2)
                        if x[i - 1] < x[j - 1]
                        and not any(x[i - 1] <= x[c] <= x[j - 1] for c in range(i, j - 1))
                    }
                    expected = sorted((u.pos, u.neg) for u in covers)
                    assert sorted(shift_covers(pos, neg, full)) == expected, w
                    assert all(_potential(u.pos, u.neg) < _potential(pos, neg) for u in covers), w
                    vectors += 1
        assert vectors == 3 + 9 + 27 + 81 + 243 + 729


class TestPrecedes:
    def test_examples(self):
        assert precedes(v("+-"), v("-+"))
        assert not precedes(v("-+"), v("+-"))
        assert precedes(v("+0-"), v("0+-"))
        assert precedes(v("+-0"), v("0-+"))

    def test_reflexive(self):
        for w in enumerate_all(Profile(4, 2, 1)):
            assert precedes(w, w)
            assert precedes_oracle(w, w)

    def test_profile_mismatch_false(self):
        assert not precedes(v("+-0"), v("++-"))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            precedes(v("+-"), v("+-0"))

    def test_oracle_dimension_guard(self):
        big = "+-" + "0" * 7
        with pytest.raises(ValueError):
            precedes_oracle(v(big), v(big))
        with pytest.raises(ValueError):
            down_set_oracle(v(big), {})

    def test_down_set_oracle_matches_bfs_oracle(self):
        # every pair of every profile with n <= 5, one memo per profile
        for n in range(1, 6):
            for k in range(1, n + 1):
                for l in range(0, n - k + 1):
                    fam = list(enumerate_all(Profile(n, k, l)))
                    known = {}
                    for b in fam:
                        down = down_set_oracle(b, known)
                        assert {a for a in fam if precedes_oracle(a, b)} == down, b
                    # every vector of the class was reached, and nothing outside it
                    assert set(known) == set(fam)

    def test_matches_oracle_exhaustive(self):
        for profile in [Profile(4, 2, 1), Profile(4, 1, 1), Profile(5, 2, 2)]:
            fam = list(enumerate_all(profile))
            for a in fam:
                for b in fam:
                    assert precedes(a, b) == precedes_oracle(a, b), (a, b)

    def test_single_shift_precedes(self):
        for w in enumerate_all(Profile(5, 3, 1)):
            for i, j in combinations(range(1, 6), 2):
                assert precedes(shift_ij(w, i, j), w)

    @settings(max_examples=200)
    @given(st.randoms(use_true_random=False))
    def test_matches_oracle_random_dim7(self, rng):
        n = 7
        k = rng.randint(1, 4)
        l = rng.randint(0, min(k, n - k))
        pick = lambda: rng.sample(range(1, n + 1), k + l)
        sup_a, sup_b = pick(), pick()
        a = SignedVector.from_supports(n, sup_a[:k], sup_a[k:])
        b = SignedVector.from_supports(n, sup_b[:k], sup_b[k:])
        assert precedes(a, b) == precedes_oracle(a, b)
        assert (a in down_set_oracle(b, {})) == precedes_oracle(a, b)


class TestIsShifted:
    def test_examples(self):
        p = Profile(3, 1, 1)
        assert is_shifted(VectorFamily(p, [v("+0-"), v("+-0")]))
        assert not is_shifted(VectorFamily(p, [v("0+-")]))
        assert is_shifted(VectorFamily(p, []))

    def test_full_class_is_shifted(self):
        assert is_shifted(enumerate_all(Profile(5, 2, 1)))


def random_family(seed: int, profile: Profile, size: int) -> VectorFamily:
    rng = random.Random(seed)
    pool = list(enumerate_all(profile))
    return VectorFamily(profile, rng.sample(pool, min(size, len(pool))))


def random_avoiding_family(seed: int, profile: Profile, spec: ForbiddenSpec) -> VectorFamily:
    from signedfam.vectors import scalar_product

    rng = random.Random(seed)
    pool = list(enumerate_all(profile))
    rng.shuffle(pool)
    chosen: list[SignedVector] = []
    for cand in pool:
        if all(not spec.forbids(scalar_product(cand, c)) for c in chosen):
            chosen.append(cand)
    return VectorFamily(profile, chosen)


class TestCompress:
    def test_already_shifted_unchanged(self):
        fam = enumerate_all(Profile(4, 2, 1))
        assert compress(fam) == fam

    def test_single_vector(self):
        p = Profile(3, 1, 1)
        out = compress(VectorFamily(p, [v("0-+")]))
        assert len(out) == 1
        assert is_shifted(out)
        assert list(out)[0] == v("+0-")

    def test_cardinality_and_shiftedness(self):
        for seed in range(12):
            for profile in [Profile(5, 2, 1), Profile(6, 3, 2), Profile(5, 2, 2)]:
                fam = random_family(seed, profile, 9)
                out = compress(fam)
                assert len(out) == len(fam)
                assert is_shifted(out)

    def test_constraint_preserved(self):
        # compression never introduces a forbidden product
        for seed in range(10):
            for profile in [Profile(5, 2, 1), Profile(6, 3, 2)]:
                spec = ForbiddenSpec.exact({-2 * profile.l})
                fam = random_avoiding_family(seed, profile, spec)
                out = compress(fam)
                assert len(out) == len(fam)
                assert is_shifted(out)
                assert verify_family(out, spec).ok

    def test_nonneg_constraint_preserved(self):
        for seed in range(6):
            profile = Profile(5, 2, 2)
            spec = ForbiddenSpec.all_below(0)
            fam = random_avoiding_family(seed, profile, spec)
            out = compress(fam)
            assert len(out) == len(fam)
            assert is_shifted(out)
            assert verify_family(out, spec).ok

    def test_members_dominated_by_originals(self):
        # every output member precedes some input member
        fam = random_family(3, Profile(5, 2, 1), 8)
        out = compress(fam)
        for b in out:
            assert any(precedes(b, a) for a in fam)
