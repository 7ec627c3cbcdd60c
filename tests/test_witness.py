"""Witness construction: frozen traces, exhaustive sweeps, falsifiability."""

import dataclasses

import pytest

from signedfam.constructions import classify_vector
from signedfam.shifting import precedes, precedes_oracle
from signedfam.vectors import Profile, SignedVector, enumerate_all, full_window, scalar_product
from signedfam.witness import check_conditions, construct_witness, verify_trace_claims


def v(s: str) -> SignedVector:
    return SignedVector.parse(s)


class TestConditions:
    def test_window_condition_examples(self):
        # a plus in the first coordinate kills the t = 1 window
        assert check_conditions(v("+0-+")) == (True, False)
        # two pluses inside [1, 3] kill the t = 2 window
        assert check_conditions(v("-++00")) == (True, False)
        assert check_conditions(v("0+-+")) == (True, True)
        assert check_conditions(v("0-+-++")) == (True, True)

    def test_suffix_condition_examples(self):
        assert check_conditions(v("0+--0+"))[0] is False
        assert check_conditions(v("00--+"))[0] is False
        assert check_conditions(v("0+0-+"))[0] is True

    def test_total_on_any_profile(self):
        # callable even where the construction itself is out of scope
        assert check_conditions(v("0--+")) == (False, True)

    def test_window_condition_and_b1_share_one_window_count(self):
        # condition (ii) and the B1 label both read full_window; check it
        # and both readers against the windows themselves, n <= 8
        for n in range(1, 9):
            for k in range(1, n + 1):
                for l in range(0, n - k + 1):
                    for w in enumerate_all(Profile(n, k, l)):
                        text = str(w)
                        pluses = [text[: 2 * t - 1].count("+") for t in range(1, (n + 3) // 2)]
                        full = [t for t, count in enumerate(pluses, 1) if count == t]
                        assert full_window(w) == (full[0] if full else None), text
                        below = all(count <= t - 1 for t, count in enumerate(pluses, 1))
                        assert check_conditions(w)[1] == below, text
                        if w.last == 1:
                            label = classify_vector(w)
                            assert (label.kind == "B1") == bool(full), text
                            assert label.t == (full[0] if full else None), text


# frozen end-to-end traces
WITNESS_CASES = [
    # w, mid, pairing, zeros, kept plus, result, product
    ("0+-+", "0++-", ((3, 4),), (1,), (2,), "+0+-", -2),
    ("0-+-++", "0+-+-+", ((4, 5), (2, 3)), (1,), (6,), "++-+-0", -4),
    # l = 0: no pairing phase, product 0
    ("00++", "00++", (), (1, 2), (3, 4), "++00", 0),
]


class TestConstruction:
    @pytest.mark.parametrize("w_s, mid_s, pairing, zeros, kept, result_s, product", WITNESS_CASES)
    def test_frozen_traces(self, w_s, mid_s, pairing, zeros, kept, result_s, product):
        w = v(w_s)
        result, trace = construct_witness(w)
        assert result == v(result_s)
        assert trace.mid == v(mid_s)
        assert trace.pairing == pairing
        assert trace.zeros_asc == zeros
        assert trace.kept_plus_asc == kept
        assert scalar_product(result, w) == product == -2 * w.l
        assert precedes(result, w)
        assert verify_trace_claims(trace, w).all_pass

    def test_smallest_unused_partner(self):
        # the minus pairs with the nearest plus above it, not the largest
        w = v("-0+0+")
        result, trace = construct_witness(w)
        assert trace.pairing == ((1, 3),)
        assert trace.kept_plus_asc == (5,)
        assert verify_trace_claims(trace, w).all_pass

    def test_rejects_unmet_conditions(self):
        with pytest.raises(ValueError):
            construct_witness(v("+0-+"))
        with pytest.raises(ValueError):
            construct_witness(v("-++00"))

    def test_rejects_k_below_l(self):
        with pytest.raises(ValueError):
            construct_witness(v("0--+"))


EXHAUSTIVE_PROFILES = [
    # (n, k, l) -> number of vectors satisfying both conditions
    ((5, 2, 1), 13),
    ((6, 3, 2), 15),
    ((8, 3, 2), 198),
    ((6, 2, 0), 9),  # l = 0
]


class TestExhaustive:
    @pytest.mark.parametrize("profile, expected_eligible", EXHAUSTIVE_PROFILES)
    def test_whole_class(self, profile, expected_eligible):
        n, k, l = profile
        eligible = 0
        for w in enumerate_all(Profile(n, k, l)):
            cond_i, cond_ii = check_conditions(w)
            if not (cond_i and cond_ii):
                continue
            eligible += 1
            result, trace = construct_witness(w)
            assert scalar_product(result, w) == -2 * l
            assert precedes(result, w)
            assert precedes_oracle(result, w)
            report = verify_trace_claims(trace, w)
            assert report.all_pass, [c.name for c in report.checks if not c.ok]
        assert eligible == expected_eligible


class TestClaimVerifier:
    def test_detects_swapped_shift_targets(self):
        w = v("0-+-++")
        _, trace = construct_witness(w)
        corrupted = dataclasses.replace(
            trace, zeros_asc=trace.kept_plus_asc, kept_plus_asc=trace.zeros_asc
        )
        report = verify_trace_claims(corrupted, w)
        assert not report.all_pass
        failed = {c.name for c in report.checks if not c.ok}
        assert "claim2" in failed

    def test_detects_wrong_result(self):
        w = v("0+-+")
        _, trace = construct_witness(w)
        corrupted = dataclasses.replace(trace, result=v("0++-"))
        report = verify_trace_claims(corrupted, w)
        assert not report.all_pass
        failed = {c.name for c in report.checks if not c.ok}
        assert "replay" in failed or "product" in failed

    def test_detects_fake_pairing(self):
        w = v("0+-+")
        _, trace = construct_witness(w)
        corrupted = dataclasses.replace(trace, pairing=((3, 2),))
        report = verify_trace_claims(corrupted, w)
        assert not report.all_pass

    @pytest.mark.parametrize(
        "field, value, check",
        [
            ("pairing", ((9, 2),), "pairing"),
            ("kept_plus_asc", (9,), "zero_sum"),
            ("pairing", ((0, 4),), "pairing"),
            ("kept_plus_asc", (0,), "zero_sum"),
            ("result", v("+0+-0"), "product"),
        ],
    )
    def test_corrupt_trace_fails_a_check_and_never_raises(self, field, value, check):
        # an index outside [1, 4], or a result of another dimension, is a
        # corrupted trace: reported, never raised
        w = v("0+-+")
        _, trace = construct_witness(w)
        report = verify_trace_claims(dataclasses.replace(trace, **{field: value}), w)
        failed = {c.name for c in report.checks if not c.ok}
        assert check in failed and "replay" in failed
