"""Vector primitives against brute-force definitions."""

import itertools
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from signedfam.constructions import (
    best_split_family,
    ekr_family,
    inductive_extend,
    partition_by_last,
    xy_families,
)
from signedfam.solver import solve_extremal, target_spec
from signedfam.suites import run_suite
from signedfam.vectors import (
    ForbiddenSpec,
    Profile,
    SignedVector,
    SuffixMarkers,
    VectorFamily,
    canonical_pairs,
    enumerate_all,
    min_suffix_sum,
    products,
    scalar_product,
    suffix_markers,
    verify_family,
)


def brute_force_class(n: int, k: int, l: int) -> set[str]:
    """All sign strings of length n with k pluses and l minuses."""
    out = set()
    for values in itertools.product("+-0", repeat=n):
        s = "".join(values)
        if s.count("+") == k and s.count("-") == l:
            out.add(s)
    return out


def vectors(draw_dim=st.integers(2, 8)):
    @st.composite
    def _vectors(draw):
        n = draw(draw_dim)
        k = draw(st.integers(1, n))
        l = draw(st.integers(0, n - k))
        support = draw(st.permutations(range(1, n + 1)))
        return SignedVector.from_supports(n, support[:k], support[k : k + l])

    return _vectors()


class TestProfile:
    def test_validation(self):
        Profile(4, 2, 1)
        Profile(3, 3, 0)
        with pytest.raises(ValueError):
            Profile(3, 2, 2)  # n < k + l
        with pytest.raises(ValueError):
            Profile(4, 0, 1)
        with pytest.raises(ValueError):
            Profile(4, 2, -1)

    def test_family_size(self):
        assert Profile(4, 2, 1).family_size() == 12
        assert Profile(6, 3, 2).family_size() == 60
        assert Profile(7, 3, 2).family_size() == 210

    def test_is_g_profile(self):
        assert Profile(6, 3, 2).is_g_profile
        assert not Profile(6, 2, 2).is_g_profile
        assert not Profile(6, 2, 0).is_g_profile


class TestSignedVector:
    def test_parse_format_roundtrip(self):
        for s in ["+0-+", "0+-+", "---", "+", "0000"]:
            assert str(SignedVector.parse(s)) == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SignedVector.parse("")
        with pytest.raises(ValueError):
            SignedVector.parse("+1-")
        with pytest.raises(ValueError):
            SignedVector.parse("+ -")

    def test_supports(self):
        v = SignedVector.parse("+0-+")
        assert v.pos_support() == (1, 4)
        assert v.neg_support() == (3,)
        assert (v.k, v.l) == (2, 1)
        assert v.last == 1
        assert v.value_at(2) == 0

    def test_from_supports_rejects_overlap(self):
        with pytest.raises(ValueError):
            SignedVector.from_supports(4, [1, 2], [2])
        with pytest.raises(ValueError):
            SignedVector.from_supports(4, [5], [])

    def test_dimension_cap(self):
        cap = 128
        assert SignedVector.parse("+" + "0" * (cap - 1)).dim == cap
        assert Profile(cap, 2, 1).n == cap
        with pytest.raises(ValueError, match="exceeds cap 128"):
            SignedVector.parse("+" + "0" * cap)
        with pytest.raises(ValueError, match="exceeds cap 128"):
            Profile(cap + 1, 2, 1)

    @given(vectors())
    def test_roundtrip_property(self, v):
        assert SignedVector.parse(str(v)) == v


class TestScalarProduct:
    def test_against_coordinate_sum(self):
        fam = list(enumerate_all(Profile(5, 2, 1)))
        for v in fam[::3]:
            for w in fam[::3]:
                expected = sum(a * b for a, b in zip(v.values(), w.values()))
                assert scalar_product(v, w) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scalar_product(SignedVector.parse("+-"), SignedVector.parse("+-0"))

    def test_range_bounds(self):
        # k >= l: products live in [-2l, k+l]
        fam = list(enumerate_all(Profile(5, 2, 1)))
        products = {scalar_product(v, w) for v in fam for w in fam}
        assert min(products) == -2
        assert max(products) == 3

    def test_kernel_is_the_product_on_whole_classes(self):
        # l = 0, k = l and k < l, and a g class
        for p in (Profile(5, 2, 0), Profile(6, 2, 2), Profile(6, 1, 3), Profile(7, 3, 2)):
            fam = enumerate_all(p)
            for v in fam:
                row = products((v.pos, v.neg), fam.masks)
                assert row == [scalar_product(v, w) for w in fam], (p, v)

    @given(vectors(), st.data())
    def test_symmetry(self, v, data):
        support = data.draw(st.permutations(range(1, v.dim + 1)))
        w = SignedVector.from_supports(v.dim, support[: v.k], support[v.k : v.k + v.l])
        assert scalar_product(v, w) == scalar_product(w, v)


def suffix_oracle(v: SignedVector) -> tuple[int, SuffixMarkers | None]:
    values = v.values()
    sums = {i: sum(values[i - 1 :]) for i in range(1, v.dim + 1)}
    lam = min(sums.values())
    hits = [i for i, s in sums.items() if s == -1]
    if not hits:
        return lam, None
    idx = max(hits)
    negs = sum(1 for j in range(idx, v.dim + 1) if values[j - 1] == -1)
    return lam, SuffixMarkers(idx, negs)


class TestSuffixFunctionals:
    def test_examples(self):
        assert min_suffix_sum(SignedVector.parse("+--+")) == -1
        assert suffix_markers(SignedVector.parse("+--+")) == SuffixMarkers(2, 2)
        assert min_suffix_sum(SignedVector.parse("0+-+")) == 0
        assert suffix_markers(SignedVector.parse("0+-+")) is None
        assert min_suffix_sum(SignedVector.parse("--+0+")) == 0
        assert suffix_markers(SignedVector.parse("--+0+")) is None
        assert suffix_markers(SignedVector.parse("00--+")) == SuffixMarkers(3, 2)

    def test_exhaustive_against_oracle(self):
        # every profile with n <= 8
        for n in range(1, 9):
            for k in range(1, n + 1):
                for l in range(0, n - k + 1):
                    for v in enumerate_all(Profile(n, k, l)):
                        lam, markers = suffix_oracle(v)
                        assert min_suffix_sum(v) == lam, str(v)
                        assert suffix_markers(v) == markers, str(v)

    @given(vectors())
    def test_markers_iff_interlacedness(self, v):
        # markers exist exactly when the minimum suffix sum dips below zero
        lam, markers = suffix_oracle(v)
        assert min_suffix_sum(v) == lam
        assert (suffix_markers(v) is not None) == (lam <= -1)


class TestEnumeration:
    def test_counts_match_formula(self):
        for profile in [Profile(4, 2, 1), Profile(5, 1, 1), Profile(6, 3, 2), Profile(4, 2, 0)]:
            assert len(enumerate_all(profile)) == profile.family_size()

    def test_matches_brute_force(self):
        for (n, k, l) in [(4, 2, 1), (5, 2, 2), (5, 3, 0), (3, 1, 1)]:
            fam = enumerate_all(Profile(n, k, l))
            assert {str(v) for v in fam} == brute_force_class(n, k, l)

    def test_no_duplicates(self):
        fam = enumerate_all(Profile(6, 3, 2))
        assert len(set(fam)) == len(fam)


class TestCanonicalPairs:
    def test_raw_output_is_ascending(self):
        for n in range(1, 9):
            every = [1 << i for i in range(n)]
            odd, even = every[::2], every[1::2]
            for k in range(0, n + 1):
                for l in range(0, n - k + 1):
                    runs = [
                        canonical_pairs(every, every, k, l),
                        canonical_pairs(odd, even, k, l),
                        canonical_pairs(every[1:], every[1:], k, l, fixed_pos=1),
                        canonical_pairs(every, every, k, l, fixed_neg=1 << n),
                    ]
                    for run in runs:
                        pairs = list(run)
                        assert pairs == sorted(set(pairs)), (n, k, l)

    def test_bit_order_does_not_matter(self):
        every = [1 << i for i in range(7)]
        assert list(canonical_pairs(every[::-1], every, 3, 2)) == list(
            canonical_pairs(every, every[::-1], 3, 2)
        )


class TestVectorFamily:
    def test_dedup_and_order(self):
        p = Profile(3, 1, 1)
        a = SignedVector.parse("+-0")
        b = SignedVector.parse("-+0")
        fam = VectorFamily(p, [b, a, a])
        assert len(fam) == 2
        assert list(fam) == sorted([a, b], key=lambda v: (v.pos, v.neg))

    def test_member_profile_enforced(self):
        with pytest.raises(ValueError):
            VectorFamily(Profile(3, 1, 1), [SignedVector.parse("++-")])
        with pytest.raises(ValueError):
            VectorFamily(Profile(3, 1, 1), [SignedVector.parse("+-")])

    def test_trusted_path_keeps_each_vectors_checks(self):
        # _of_masks skips the family-level checks, never the checks of each mask pair
        with pytest.raises(ValueError, match="overlap"):
            VectorFamily._of_masks(Profile(3, 1, 1), [(1, 1)])

    def test_immutable(self):
        fam = VectorFamily(Profile(3, 1, 1), [SignedVector.parse("+-0")])
        with pytest.raises(AttributeError):
            fam.members = ()

    def test_text_roundtrip(self):
        fam = enumerate_all(Profile(4, 2, 1))
        again = VectorFamily.from_text(fam.to_text())
        assert again == fam
        assert again.profile == fam.profile

    def test_file_roundtrip(self, tmp_path):
        fam = enumerate_all(Profile(5, 2, 1))
        path = tmp_path / "fam.txt"
        fam.save(path)
        assert VectorFamily.load(path) == fam

    def test_from_text_rejects_bad_header(self):
        with pytest.raises(ValueError):
            VectorFamily.from_text("4 2\n+-00\n")
        with pytest.raises(ValueError):
            VectorFamily.from_text("4 2 1\n+-0\n")

    def test_from_text_rejects_an_empty_file(self):
        for text in ("", "\n  \n"):
            with pytest.raises(ValueError, match="empty family file"):
                VectorFamily.from_text(text)

    def test_from_text_rejects_a_header_that_is_not_integers(self):
        with pytest.raises(ValueError, match=r"malformed header line '4 2 x'; expected integers"):
            VectorFamily.from_text("4 2 x\n+-00\n")

    def test_contains(self):
        fam = enumerate_all(Profile(3, 1, 1))
        assert SignedVector.parse("+-0") in fam
        assert SignedVector.parse("+00") not in fam


SMALL_PROFILES = [
    Profile(n, k, l) for n in range(1, 8) for k in range(1, n + 1) for l in range(n - k + 1)
]


def _bulk_builds(p: Profile):
    """(name, family) for every way the package builds a family of profile p."""
    yield "enumerate_all", enumerate_all(p)
    yield "ekr_family", ekr_family(p)
    yield "best_split_family", best_split_family(p)
    if p.l >= 1:
        yield "inductive_extend", inductive_extend(ekr_family(p))
    for side, fam in zip(("minus", "zero", "plus"), partition_by_last(enumerate_all(p))):
        yield f"partition_by_last[{side}]", fam
    if p.n >= 2:
        for side, fam in zip("xy", xy_families(p, 1, 0)):
            yield f"xy_families[{side}]", fam
    if p.n <= 5:
        target = "g" if p.is_g_profile else "m"
        for pruned in (True, False):
            yield f"{target} witness, pruned={pruned}", solve_extremal(
                p, target, shifted_pruning=pruned
            ).witness
    members = enumerate_all(p).members[::2]
    yield "VectorFamily", VectorFamily(p, members[::-1] + members[:1])
    yield "from_text", VectorFamily.from_text(VectorFamily(p, members).to_text())


class TestBulkPath:
    @pytest.mark.parametrize(
        "pair, message",
        [
            ((0b011, 0b010), "overlap"),
            ((0b1000, 0b001), "out of range"),
            ((0b001, 0b1000), "out of range"),
            ((-1, 0b010), "out of range"),
            ((0b001, -2), "out of range"),
        ],
    )
    def test_a_bad_pair_raises_inside_the_builder_call(self, pair, message):
        good = [(0b100, 0b010), (0b001, 0b100)]
        with pytest.raises(ValueError, match=message):
            VectorFamily._of_masks(Profile(3, 1, 1), good + [pair])

    def test_every_builder_matches_the_checked_constructor(self):
        assert len(SMALL_PROFILES) == 84
        for p in SMALL_PROFILES:
            for name, fam in _bulk_builds(p):
                checked = VectorFamily(
                    fam.profile, [SignedVector(v.dim, v.pos, v.neg) for v in fam.members]
                )
                assert fam.masks == tuple(sorted((v.pos, v.neg) for v in fam.members)), (name, p)
                assert len(fam) == len(fam.masks), (name, p)
                assert fam.members == checked.members, (name, p)
                assert fam == checked and hash(fam) == hash(checked), (name, p)
                assert fam.to_text() == checked.to_text(), (name, p)

    def test_a_bulk_vector_is_its_public_twin(self):
        v = ekr_family(Profile(5, 2, 1)).members[3]
        twin = SignedVector(v.dim, v.pos, v.neg)
        assert type(v) is SignedVector and v is not twin
        assert v == twin and hash(v) == hash(twin) and repr(v) == repr(twin)
        assert {v: 1}[twin] == 1
        for field in ("dim", "pos", "neg"):
            with pytest.raises(FrozenInstanceError):
                setattr(v, field, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(v, field)
        # a name that is not a field has no slot; some Python versions raise
        # TypeError there, as a frozen slots dataclass's __setattr__ calls
        # super() on the class as it was before its slots were added
        with pytest.raises((AttributeError, TypeError)):
            v.other = 0
        assert not hasattr(v, "__dict__") and v == twin

    def test_len_before_members_are_read(self):
        for p in SMALL_PROFILES:
            for name, fam in _bulk_builds(p):
                size = len(fam)
                # counting leaves the members unbuilt
                assert fam._members is None, (name, p)
                assert size == len(fam.members) == len(fam), (name, p)
        assert len(enumerate_all(Profile(7, 2, 2))) == Profile(7, 2, 2).family_size()
        assert len(ekr_family(Profile(7, 3, 1))) == 60

    def test_members_pass_the_vector_checks_and_class_walks_build_none(self, monkeypatch):
        counts = _count_builds(monkeypatch)
        fam = enumerate_all(Profile(6, 3, 2))
        assert counts == {"checked": 0, "members": 0}
        members = fam.members
        assert counts == {"checked": 60, "members": 60}
        assert fam.members is members and counts["checked"] == 60
        counts.update(checked=0, members=0)
        # the window-class walks read the class's mask pairs only
        for t, m in ((1, 0), (2, 1), (3, 2)):
            xy_families(Profile(10, 3, 2), t, m)
        assert run_suite("ratios", max_dim=8).ok
        assert counts == {"checked": 0, "members": 0}

    def test_membership_reads_the_masks(self, monkeypatch):
        fam = ekr_family(Profile(6, 3, 2))
        member = SignedVector(6, *fam.masks[7])
        # of the profile, but with -1 where every member has +1
        outside = SignedVector.parse("-++0+-")
        wider = SignedVector(7, member.pos, member.neg)
        counts = _count_builds(monkeypatch)
        assert member in fam
        assert outside not in fam
        # the same masks in another dimension, and no vector at all
        assert wider not in fam
        assert (member.pos, member.neg) not in fam and str(member) not in fam
        assert counts == {"checked": 0, "members": 0}


def _count_builds(monkeypatch) -> dict:
    """Counts of vectors built: SignedVector.__post_init__ calls, and members a family builds."""
    counts = {"checked": 0, "members": 0}
    check = SignedVector.__post_init__
    read = VectorFamily.members.fget

    def counted_check(v):
        counts["checked"] += 1
        return check(v)

    def counted_read(fam):
        if fam._members is None:
            counts["members"] += len(fam.masks)
        return read(fam)

    monkeypatch.setattr(SignedVector, "__post_init__", counted_check)
    monkeypatch.setattr(VectorFamily, "members", property(counted_read))
    return counts


def _naive_check(fam: VectorFamily, spec) -> tuple:
    """(ok, pairs_checked, violation) by the definition: scalar_product on every pair in order."""
    members = fam.members
    checked = 0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            checked += 1
            prod = scalar_product(members[a], members[b])
            if spec.forbids(prod):
                return False, checked, (members[a], members[b], prod)
    return True, checked, None


def _planted(clean: VectorFamily, spec, where: str) -> tuple[VectorFamily, tuple]:
    """clean's members that conflict with neither of a forbidden pair (u, w), plus u and w.

    The pair comes from the class of clean's profile, and the kept members
    lie after it ("first"), before it ("last") or on both sides ("middle"),
    so the scan's first hit is (u, w) at the first, the last or a middle pair.
    """
    p = clean.profile
    members = enumerate_all(p).members
    pairs = [
        (u, w)
        for i, u in enumerate(members)
        for w in members[i + 1 :]
        if spec.forbids(scalar_product(u, w))
    ]
    if where == "first":
        pairs = pairs[:1]
    elif where == "last":
        pairs = pairs[-1:]
    else:
        pairs = pairs[len(pairs) // 2 :]
    for u, w in pairs:
        kept = [
            v
            for v in clean
            if not spec.forbids(scalar_product(v, u)) and not spec.forbids(scalar_product(v, w))
        ]
        below = [v for v in kept if (v.pos, v.neg) < (u.pos, u.neg)]
        above = [v for v in kept if (v.pos, v.neg) > (w.pos, w.neg)]
        sides = {"first": ([], above), "last": (below, [])}.get(where, (below, above))
        if where != "middle" or (below and above):
            return VectorFamily(p, sides[0] + [u, w] + sides[1]), (u, w, scalar_product(u, w))
    raise AssertionError(f"no forbidden pair with members on both sides in {clean}")


class TestVerifyFamily:
    CLEAN = [
        ("g", ekr_family(Profile(7, 3, 1))),
        ("g", inductive_extend(ekr_family(Profile(6, 2, 1)))),
        ("g", best_split_family(Profile(7, 3, 2))),
        ("m", best_split_family(Profile(7, 3, 1))),
        ("m", best_split_family(Profile(6, 2, 2))),
    ]

    @pytest.mark.parametrize("target, fam", CLEAN)
    def test_clean_families_match_the_naive_scan(self, target, fam):
        spec = target_spec(fam.profile, target)
        check = verify_family(fam, spec)
        assert (check.ok, check.pairs_checked, check.violation) == _naive_check(fam, spec)
        assert check.ok and check.pairs_checked == len(fam) * (len(fam) - 1) // 2

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("target, profile", [("g", Profile(7, 2, 1)), ("m", Profile(6, 2, 1))])
    def test_a_planted_conflict_matches_the_naive_scan(self, target, profile, where):
        spec = target_spec(profile, target)
        clean = ekr_family(profile) if target == "g" else best_split_family(profile)
        fam, violation = _planted(clean, spec, where)
        check = verify_family(fam, spec)
        assert (check.ok, check.pairs_checked, check.violation) == _naive_check(fam, spec)
        assert not check.ok and check.violation == violation
        total = len(fam) * (len(fam) - 1) // 2
        position = {"first": 1, "last": total}.get(where, check.pairs_checked)
        assert check.pairs_checked == position and 1 <= position <= total
        if where == "middle":
            assert 1 < position < total

    def test_a_clean_family_is_checked_without_building_its_members(self):
        fam = ekr_family(Profile(7, 3, 1))
        assert verify_family(fam, target_spec(fam.profile, "g")).ok
        assert fam._members is None

    def test_the_least_product_in_a_class_is_caught(self):
        # k = l lets two members reach the least product -(k + l)
        p = Profile(4, 2, 2)
        spec = ForbiddenSpec.exact({-4})
        fam = enumerate_all(p)
        check = verify_family(fam, spec)
        assert (check.ok, check.pairs_checked, check.violation) == _naive_check(fam, spec)
        assert check.violation[2] == -4
