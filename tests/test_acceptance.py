"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is checked end to end against the library's public
surface.  Every test solves what it needs itself, so each passes when
run alone.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from signedfam import (
    ForbiddenSpec,
    Profile,
    SignedVector,
    enumerate_all,
    is_shifted,
    precedes,
    precedes_oracle,
    scalar_product,
    solve_extremal,
    verify_family,
)
from signedfam import bipartite, formulas, witness
from signedfam.constructions import (
    classify_vector,
    ekr_family,
    inductive_extend,
    partition_by_last,
)
from signedfam.suites import run_suite


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    else:
        print(f"[PASS] criterion {number}: {label}")


def g_profiles(max_n):
    for n in range(3, max_n + 1):
        for k in range(2, n):
            for l in range(1, k):
                if k + l <= n:
                    yield n, k, l


def test_criterion_01_solver_matches_l1_closed_form():
    with criterion(1, "exact solver reproduces the l = 1 closed-form values"):
        for (n, k), expected in [((4, 2), 6), ((5, 2), 12), ((6, 2), 22), ((6, 3), 30)]:
            result = solve_extremal(Profile(n, k, 1), "g", budget=60.0)
            assert result.is_exact, f"(n={n}, k={k}) not solved exactly"
            assert result.elapsed < 60.0, f"(n={n}, k={k}) took {result.elapsed:.1f}s"
            assert result.value == expected == formulas.g_closed_l1(n, k)


def test_criterion_02_fixed_coordinate_values_at_l2():
    with criterion(2, "solver equals the fixed-first-coordinate count at (6,3,2), (7,3,2)"):
        for (n, k, l), expected in [((6, 3, 2), 30), ((7, 3, 2), 90)]:
            result = solve_extremal(Profile(n, k, l), "g", budget=600.0)
            assert result.is_exact
            assert result.value == expected
            assert result.value == formulas.binom(n - 1, k + l - 1) * formulas.binom(
                k + l - 1, l
            )


def test_criterion_03_bounds_sandwich_every_solved_instance():
    with criterion(3, "general lower/upper bounds sandwich every solved value"):
        # the instances of criteria 1 and 2, and three more
        instances = [(4, 2, 1), (5, 2, 1), (6, 2, 1), (6, 3, 1), (6, 3, 2), (7, 3, 2)]
        instances += [(5, 3, 1), (5, 3, 2), (6, 4, 2)]
        for n, k, l in instances:
            result = solve_extremal(Profile(n, k, l), "g", budget=600.0)
            assert result.is_exact, (n, k, l)
            lower, upper = formulas.g_bounds(n, k, l)
            assert lower <= result.value <= upper, (n, k, l)


def test_criterion_04_witness_construction_exhaustive():
    with criterion(4, "witness construction succeeds for every eligible vector"):
        expected_eligible = {(5, 2, 1): 13, (6, 3, 2): 15, (8, 3, 2): 198}
        for (n, k, l), count in expected_eligible.items():
            eligible = 0
            for w in enumerate_all(Profile(n, k, l)):
                cond_i, cond_ii = witness.check_conditions(w)
                if not (cond_i and cond_ii):
                    continue
                eligible += 1
                v, trace = witness.construct_witness(w)
                assert scalar_product(v, w) == -2 * l, f"product off for {w}"
                assert precedes_oracle(v, w), f"{v} does not reach {w}"
                report = witness.verify_trace_claims(trace, w)
                failed = [c.name for c in report.checks if not c.ok]
                assert report.all_pass, f"{w}: {failed}"
            assert eligible == count, f"eligible count drifted at ({n},{k},{l})"


def test_criterion_05_plus_class_dichotomy():
    with criterion(5, "every plus-final member of an optimal shifted family is B1 or B2"):
        members_seen = 0
        for n, k, l in g_profiles(7):
            result = solve_extremal(Profile(n, k, l), "g", budget=600.0)
            assert result.is_exact, (n, k, l)
            fam = result.witness
            assert is_shifted(fam), (n, k, l)
            _, _, plus = partition_by_last(fam)
            for v in plus:
                label = classify_vector(v)
                assert label.kind in ("B1", "B2"), f"unclassified {v} at ({n},{k},{l})"
                members_seen += 1
        assert members_seen > 0


def test_criterion_06_dominance_test_matches_oracle():
    with criterion(6, "fast dominance test agrees with the breadth-first oracle"):
        report = run_suite("precedes")  # exhaustive n <= 5 plus 10^4 random pairs
        assert report.ok, [c for c in report.cases if not c.passed]
        assert any("0 mismatches" in c.actual for c in report.cases)


def test_criterion_07_window_class_cardinalities():
    with criterion(7, "window-class sizes equal the binomial forms up to dimension 12"):
        report = run_suite("ratios", max_dim=12)
        assert report.ok, [c for c in report.cases if not c.passed]
        assert len(report.cases) >= 90


def test_criterion_08_biregularity_and_averaging_bound():
    with criterion(8, "comparison graphs biregular; averaging bound on 1000 random triples"):
        for profile, t, m, degrees in [
            (Profile(8, 2, 1), 1, 0, (2, 5)),
            (Profile(9, 3, 2), 2, 0, (6, 6)),
            (Profile(9, 3, 1), 2, 1, (1, 10)),
            (Profile(10, 3, 2), 2, 1, (2, 10)),
        ]:
            g = bipartite.build_g_tm(profile, t, m)
            assert bipartite.check_biregular(g) == degrees
        for j, jp, k, l, degrees in [
            (2, 5, 3, 2, (4, 2)),
            (2, 7, 4, 2, (9, 3)),
            (2, 7, 4, 3, (6, 4)),
            (3, 5, 4, 3, None),
        ]:
            g = bipartite.build_g_prime(j, jp, k, l)
            da, db = bipartite.check_biregular(g)
            if degrees is not None:
                assert (da, db) == degrees
            assert Fraction(da, db) == Fraction(k - j + 1, l - j + 1)
        report = run_suite("lemma3", trials=1000)
        assert report.ok, [c for c in report.cases if not c.passed]


def test_criterion_09_construction_validity_and_sizes():
    with criterion(9, "constructions verify and match their closed forms up to n = 30"):
        report = run_suite("constructions")
        assert report.ok, [c for c in report.cases if not c.passed]
        # direct spot check of the extension increment
        base = ekr_family(Profile(9, 3, 2))
        grown = inductive_extend(base)
        assert len(grown) - len(base) == formulas.binom(9, 4) * formulas.binom(4, 1)
        assert len(grown) - len(base) == formulas.increment_value(9, 3, 2).value


def test_criterion_10_solver_matches_bruteforce_oracle():
    with criterion(10, "branch-and-bound equals the exhaustive oracle on 200+ graphs"):
        report = run_suite("solver-oracle")
        assert report.ok, [c for c in report.cases if not c.passed]
        labels = {c.case for c in report.cases}
        assert "random-graphs[200]" in labels
        assert any(label.startswith("profile-graphs[") for label in labels)


def test_criterion_11_asymptotic_range_substitutes():
    with criterion(11, "threshold coefficient < 1; m >= split count; increment bound to n = 30"):
        # (a) the final coefficient is an exact rational below 1 at the
        # proven dimension thresholds
        cases = 0
        for k in range(2, 9):
            for l in range(1, k):
                n = 2 * k**3 if k == l + 1 else 5 * k**2
                coeff = formulas.ratio_and_alpha(n, k, l, 1, 0).coefficient
                assert isinstance(coeff, Fraction)
                assert coeff < 1, (n, k, l, coeff)
                cases += 1
        assert cases == 28

        # (b) nonnegative-product optimum is at least the best split count
        for n, k, l in [(3, 1, 1), (4, 1, 1), (4, 2, 1), (5, 2, 1), (4, 2, 2), (5, 2, 2), (6, 3, 2)]:
            result = solve_extremal(Profile(n, k, l), "m", budget=120.0)
            assert result.is_exact, (n, k, l)
            assert result.value >= formulas.p_split(n, k, l).value, (n, k, l)

        # (c) one dimension adds at least the increment count: exact for
        # l = 1 through the closed form, and at solved l = 2 instances
        for k in range(2, 6):
            for n in range(2 * k, 30):
                step = formulas.g_closed_l1(n + 1, k) - formulas.g_closed_l1(n, k)
                inc = formulas.increment_value(n, k, 1).value
                assert step >= inc, (n, k)
                if n >= k * k:
                    assert step == inc, (n, k)
        for n, k, l in [(5, 3, 2), (6, 3, 2)]:
            low = solve_extremal(Profile(n, k, l), "g", budget=600.0)
            high = solve_extremal(Profile(n + 1, k, l), "g", budget=600.0)
            assert low.is_exact and high.is_exact
            assert high.value - low.value >= formulas.increment_value(n, k, l).value


def test_criterion_12_split_increment_report():
    with criterion(12, "split-count increment report completes and carries the discrepancy"):
        rep = formulas.p_increment_report(10, 2, 1)
        assert rep.increment == 18
        assert max(rep.candidate_lower_l, rep.candidate_lower_k) == 36
        assert not rep.equality_holds

        # confirm the three split counts by direct enumeration
        def brute_split(n, k, l):
            best = -1
            for x in range(k, n - l + 1):
                left = len(list(combinations(range(x), k)))
                right = len(list(combinations(range(n - x), l)))
                best = max(best, left * right)
            return best

        assert brute_split(10, 2, 1) - brute_split(9, 2, 1) == 18
        assert brute_split(9, 2, 0) == 36
        assert brute_split(9, 1, 1) == 20

        report = run_suite("p-increment")
        assert report.ok, [c for c in report.cases if not c.passed]
        assert any("equality false" in c.actual for c in report.cases)
