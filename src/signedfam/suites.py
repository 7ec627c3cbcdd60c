"""Named verification suites with uniform pass/fail reporting.

Each suite compares computed artifacts against an independent reference:
an exact closed form, a brute-force oracle, or an explicit construction.
The provenance column records which.  Cases flagged required=False are
informational: they document known discrepancies without failing the
suite.  All numbers in reports are exact (integers or p/q rationals).

A case that checks many items is a failure tally, added by
VerificationReport.add_failures: it expects "0 <noun>", gets
"<count> <noun>; first <description>", and passes when no item failed.
A case that checks a construction's size against its closed form over a
range of dimensions is a size sweep, added by _size_sweep: it stops at
the first dimension where the two differ and reports it.
The theorem1, eq111 and bounds suites are tables of rows that one
builder, _g_value_suite, solves afresh; the CLI's result cache is the
only store of solve results.  A solve the budget cuts short reports
"<value> (lower bound)" and fails.  The solver-oracle suite compares
every search with mis_bruteforce through one loop, _oracle_mismatches.
render() is the one writer of reports: plain text, one JSON document, or
CSV with a single header row.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle, product
from typing import Callable, Iterable, Optional, Sequence

from . import bipartite, constructions, formulas, shifting, solver, witness
from .vectors import (
    Profile, SignedVector, VectorFamily, bits, enumerate_all, products, scalar_product
)

PROVENANCE_FORMULA = "closed-form"
PROVENANCE_ORACLE = "oracle"
PROVENANCE_CONSTRUCTION = "construction"


@dataclass(frozen=True)
class CaseResult:
    case: str
    expected: str
    actual: str
    passed: bool
    provenance: str
    required: bool = True


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(
        self,
        case: str,
        expected,
        actual,
        passed: bool,
        provenance: str,
        required: bool = True,
    ) -> None:
        self.cases.append(
            CaseResult(case, _fmt(expected), _fmt(actual), passed, provenance, required)
        )

    def add_failures(
        self,
        case: str,
        noun: str,
        failures: list[str],
        among: str = "",
        provenance: str = PROVENANCE_ORACLE,
    ) -> None:
        """A case that passes when failures, the failure descriptions in order, is empty."""
        actual = f"{len(failures)} {noun}{among}"
        if failures:
            actual += f"; first {failures[0]}"
        self.add(case, f"0 {noun}{among}", actual, not failures, provenance)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases if c.required)

    @property
    def counts(self) -> tuple[int, int, int]:
        """(passed, failed-required, informational) case counts."""
        passed = sum(1 for c in self.cases if c.passed)
        failed = sum(1 for c in self.cases if c.required and not c.passed)
        info = sum(1 for c in self.cases if not c.required)
        return passed, failed, info

    def to_json_dict(self) -> dict:
        passed, failed, info = self.counts
        return {
            "suite": self.suite,
            "ok": self.ok,
            "passed": passed,
            "failed_required": failed,
            "informational": info,
            "notes": self.notes,
            "cases": [
                {
                    "case": c.case,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                    "provenance": c.provenance,
                    "required": c.required,
                }
                for c in self.cases
            ],
        }


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render(reports: list[VerificationReport], fmt: Optional[str]) -> str:
    """Reports as plain text (fmt None), one JSON document, or CSV with one header row."""
    if fmt == "json":
        payload = {"ok": all(r.ok for r in reports), "reports": [r.to_json_dict() for r in reports]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "case", "expected", "actual", "pass", "provenance"])
        for r in reports:
            for c in r.cases:
                writer.writerow(
                    [r.suite, c.case, c.expected, c.actual, _fmt(c.passed), c.provenance]
                )
        return buf.getvalue()
    lines = []
    for r in reports:
        passed, failed, info = r.counts
        lines.append(
            f"[{'PASS' if r.ok else 'FAIL'}] suite {r.suite}: "
            f"{passed} passed, {failed} failed, {info} informational"
        )
        for c in r.cases:
            status = "pass" if c.passed else ("info" if not c.required else "FAIL")
            lines.append(f"  {status:4} {c.case}: expected {c.expected}; got {c.actual}")
    return "\n".join(lines) + "\n"


def _g_value_suite(name: str, budget: float, rows) -> VerificationReport:
    """Solve g on each row; a row passes when the solve is exact and lower <= value <= upper.

    A row is (case, (n, k, l), expected, lower, upper, required).  A solve
    the budget cuts short shows "<value> (lower bound)".
    """
    report = VerificationReport(name)
    for case, nkl, expected, lower, upper, required in rows:
        result = solver.solve_extremal(Profile(*nkl), "g", budget=budget)
        actual = str(result.value) if result.is_exact else f"{result.value} (lower bound)"
        passed = result.is_exact and lower <= result.value <= upper
        report.add(case, expected, actual, passed, PROVENANCE_FORMULA, required)
    return report


def _suite_theorem1(budget: float = 60.0) -> VerificationReport:
    """Solver values against the exact closed form for l = 1."""
    rows = []
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (11, 3), (12, 3), (13, 3)):
        value = formulas.g_closed_l1(n, k)
        rows.append((f"g({n},{k},1)", (n, k, 1), value, value, value, True))
    return _g_value_suite("theorem1", budget, rows)


def _suite_eq111(budget: float = 600.0) -> VerificationReport:
    """Solver values against the fixed-first-coordinate count in its proven window."""
    rows = []
    for n, k, l in ((6, 3, 2), (7, 3, 2), (9, 4, 2), (10, 4, 2), (10, 5, 2), (11, 4, 1)):
        value, in_range = formulas.g_ekr_value(n, k, l)
        rows.append((f"g({n},{k},{l})", (n, k, l), value, value, value, in_range))
    return _g_value_suite("eq111", budget, rows)


def _suite_bounds(budget: float = 60.0) -> VerificationReport:
    """Lower/upper sandwich holds at each listed instance."""
    rows = []
    for n, k, l in (
        (4, 2, 1), (5, 2, 1), (6, 2, 1), (5, 3, 1), (5, 3, 2), (6, 3, 2), (6, 4, 2),
        (9, 3, 2), (10, 3, 2), (10, 5, 2), (11, 3, 1), (9, 4, 2), (11, 3, 2),
    ):
        lower, upper = formulas.g_bounds(n, k, l)
        expected = f"{lower} <= value <= {upper}"
        rows.append((f"bounds({n},{k},{l})", (n, k, l), expected, lower, upper, True))
    return _g_value_suite("bounds", budget, rows)


def _witness_failures(profile: Profile, use_oracle: bool) -> tuple[int, list[str]]:
    """(eligible, failure descriptions) over a whole class.

    With use_oracle, each witness must lie in its vector's shift
    down-set; the down-sets share one memo for the class.
    """
    eligible = 0
    failures = []
    floor = -2 * profile.l
    known: dict = {}
    for w in enumerate_all(profile):
        cond_i, cond_ii = witness.check_conditions(w)
        if not (cond_i and cond_ii):
            continue
        eligible += 1
        v, trace = witness.construct_witness(w)
        ok = scalar_product(v, w) == floor
        ok = ok and shifting.precedes(v, w)
        if use_oracle:
            ok = ok and v in shifting.down_set_oracle(w, known)
        ok = ok and witness.verify_trace_claims(trace, w).all_pass
        if not ok:
            failures.append(f"w={w}")
    return eligible, failures


def _suite_lemma1(n=None, k=None, l=None) -> VerificationReport:
    """Exhaustive witness construction and validation over whole classes.

    n, k and l together name a single profile in place of the default list.
    Lemma 1 needs k >= l: with k < l the whole vector sums below 0, so
    condition (i) never holds and there would be nothing to check.
    """
    report = VerificationReport("lemma1")
    profiles = [(5, 2, 1), (6, 3, 2), (8, 3, 2)]
    if (n, k, l) != (None, None, None):
        if None in (n, k, l):
            raise ValueError("suite lemma1 takes all of n, k, l or none of them")
        profiles = [(n, k, l)]
    for n, k, l in profiles:
        profile = Profile(n, k, l)
        if k < l:
            raise ValueError(f"suite lemma1 needs k >= l, got profile ({n},{k},{l})")
        use_oracle = n <= 8
        eligible, failures = _witness_failures(profile, use_oracle)
        report.add_failures(
            f"witness({n},{k},{l})", "failures", failures, f" among {eligible} eligible"
        )
        report.notes.append(
            f"profile ({n},{k},{l}): {eligible} eligible vectors, oracle={'on' if use_oracle else 'off'}"
        )
    return report


def _random_biregular_params(rng: random.Random) -> tuple[int, int, int, int]:
    a = rng.randint(2, 12)
    da = rng.randint(1, min(4, a))
    total = a * da
    # b = a (so db = da) always qualifies, so there is always a candidate
    candidates = [
        (b, total // b)
        for b in range(2, 41)
        if total % b == 0 and total // b <= a and da <= b and total // b >= 1
    ]
    b, db = rng.choice(candidates)
    return a, b, da, db


def _comparison_graph_failures(rng: random.Random) -> tuple[int, list[str]]:
    """(graphs checked, failure descriptions) over the paper's comparison graphs G(t, m).

    Every build_g_tm(Profile(n, k, l), t, m) with 4 <= n <= 8,
    k > l >= 1, k + l < n, 1 <= t <= k, 2t - 1 <= n - 1 and 0 <= m < 2t
    whose sides formulas.xy_family_sizes gives as nonempty and which has
    an edge.  Each must be biregular, and the averaging bound at
    alpha = |Y|/|X| must hold for the whole X side, the whole Y side and
    one random independent set, seeded from rng.
    """
    params = [
        (n, k, l, t, m)
        for n in range(4, 9) for k in range(2, n) for l in range(1, min(k, n - k))
        for t in range(1, min(k, n // 2) + 1) for m in range(2 * t)
        if 0 not in formulas.xy_family_sizes(n - 1, k, l, t, m)
    ]
    checked = 0
    failures = []
    for n, k, l, t, m in params:
        g = bipartite.build_g_tm(Profile(n, k, l), t, m)
        if not g.edges:
            continue
        checked += 1
        name = f"graph (n,k,l,t,m) = ({n},{k},{l},{t},{m})"
        try:
            bipartite.check_biregular(g)
        except bipartite.IrregularityError as err:
            failures.append(f"{name}: {err}")
            continue
        alpha = Fraction(g.b_size, g.a_size)
        sets = [
            (set(range(g.a_size)), set()),
            (set(), set(range(g.b_size))),
            bipartite.random_independent_set(g, seed=rng.randrange(2**32)),
        ]
        if not all(bipartite.lemma3_check(g, *side, alpha) for side in sets):
            failures.append(f"{name}: averaging bound")
    return checked, failures


def _suite_lemma3(trials: int = 1000, seed: int = 20260815) -> VerificationReport:
    """Averaging bound on randomized biregular graphs and on the comparison graphs G(t, m).

    The comparison graphs come after the random trials and draw their
    independent sets' seeds from the same generator, so the trials keep
    their draws.
    """
    report = VerificationReport("lemma3")
    rng = random.Random(seed)
    violations = []
    for trial in range(trials):
        a, b, da, db = _random_biregular_params(rng)
        g = bipartite.random_biregular(a, b, da, db, seed=rng.randrange(2**32))
        i_a, i_b = bipartite.random_independent_set(g, seed=rng.randrange(2**32))
        alpha = Fraction(b, a) + Fraction(rng.randint(0, 3), rng.randint(1, 4))
        if not bipartite.lemma3_check(g, i_a, i_b, alpha):
            violations.append(
                f"trial {trial}: sides ({a},{b}), degrees ({da},{db}), alpha {alpha}"
            )
    report.add_failures(f"averaging-bound[{trials} trials]", "violations", violations)
    checked, failures = _comparison_graph_failures(rng)
    report.add_failures(f"comparison-graphs[{checked} G(t,m)]", "failures", failures)
    return report


def _suite_ratios(max_dim: int = 12) -> VerificationReport:
    """Window-class cardinalities and their ratio against the closed forms.

    Each (dim, k, l) class is enumerated once, and its mask pairs are
    counted by (t, xy_class(pair, profile, t)) at each window count t; no
    vector is built.
    """
    report = VerificationReport("ratios")
    pairs = [
        (k, l)
        for k in range(2, max_dim)
        for l in range(1, k)
        if k + l + 1 <= max_dim
    ]
    for k, l in pairs:
        for dim in range(k + l + 1, max_dim + 1):
            n = dim - 1
            # every t whose window [1, 2t-1] stays clear of the final coordinate
            ts = range(1, min(k, dim // 2) + 1)
            profile = Profile(dim, k, l)
            sizes = Counter(
                (t, constructions.xy_class(pair, profile, t))
                for pair in enumerate_all(profile).masks for t in ts
            )
            mismatches = []
            checked = 0
            for t in ts:
                for m in range(0, 2 * t):
                    x_size, y_size = formulas.xy_family_sizes(n, k, l, t, m)
                    x_len, y_len = sizes[t, ("x", m)], sizes[t, ("y", m)]
                    checked += 1
                    if x_len != x_size or y_len != y_size:
                        mismatches.append(
                            f"t={t}, m={m}: formula ({x_size},{y_size}), "
                            f"enumerated ({x_len},{y_len})"
                        )
                        continue
                    if x_len > 0 and n > 3 * k:
                        ratio = formulas.ratio_and_alpha(n, k, l, t, m).ratio
                        if ratio != Fraction(y_len, x_len):
                            mismatches.append(f"t={t}, m={m}: ratio {ratio} != {y_len}/{x_len}")
            report.add_failures(
                f"xy-sizes(dim={dim},k={k},l={l})",
                "mismatches",
                mismatches,
                f" among {checked}",
                PROVENANCE_FORMULA,
            )
    return report


def _precedes_mismatches(
    pairs: Iterable[tuple[SignedVector, SignedVector]], known: dict
) -> tuple[int, list[str]]:
    """(pairs checked, "v=..., w=..." for each (v, w) where precedes and down_set_oracle disagree).

    known is the down-set memo that down_set_oracle shares between calls.
    """
    checked = 0
    mismatches = []
    for v, w in pairs:
        checked += 1
        if shifting.precedes(v, w) != (v in shifting.down_set_oracle(w, known)):
            mismatches.append(f"v={v}, w={w}")
    return checked, mismatches


def _suite_precedes(seed: int = 20260815) -> VerificationReport:
    """Fast reachability test against the shift down-set oracle.

    One memo of down-sets serves every pair of the call.
    """
    report = VerificationReport("precedes")
    max_exhaustive = 5
    random_pairs = 10000
    known: dict = {}

    classes = (
        enumerate_all(Profile(n, k, l)).members
        for n in range(2, max_exhaustive + 1)
        for k in range(1, n + 1)
        for l in range(0, min(k, n - k) + 1)
    )
    exhaustive = (pair for fam in classes for pair in product(fam, repeat=2))
    checked, mismatches = _precedes_mismatches(exhaustive, known)
    report.add_failures(
        f"exhaustive(n<={max_exhaustive})", "mismatches", mismatches, f" among {checked}"
    )

    rng = random.Random(seed)
    dims = [6, 7]
    profiles_by_dim = {
        n: [
            (k, l)
            for k in range(1, n + 1)
            for l in range(0, min(k, n - k) + 1)
        ]
        for n in dims
    }

    def random_pair():
        n = rng.choice(dims)
        k, l = rng.choice(profiles_by_dim[n])
        return _random_vector(rng, n, k, l), _random_vector(rng, n, k, l)

    _, mismatches = _precedes_mismatches((random_pair() for _ in range(random_pairs)), known)
    report.add_failures(f"random(n=6..7, {random_pairs} pairs)", "mismatches", mismatches)
    return report


def _random_vector(rng: random.Random, n: int, k: int, l: int) -> SignedVector:
    support = rng.sample(range(1, n + 1), k + l)
    return SignedVector.from_supports(n, support[:k], support[k:])


def _size_sweep(report: VerificationReport, case: str, noun: str, dims, size, expected) -> None:
    """One case comparing size(n) with expected(n) for n in dims, up to the first mismatch."""
    count = 0
    actual = "all match"
    for n in dims:
        count += 1
        got, want = size(n), expected(n)
        if got != want:
            actual = f"n={n}: {got} != {want}"
            break
    report.add(
        case,
        f"{noun} match at {count} dimensions",
        actual,
        actual == "all match",
        PROVENANCE_FORMULA,
    )


def _suite_constructions(max_n: int = 30) -> VerificationReport:
    """Construction families: validity at small scale, sizes at full scale."""
    report = VerificationReport("constructions")
    pairs = ((2, 1), (3, 1), (3, 2))

    for k, l in pairs:
        _size_sweep(
            report,
            f"ekr-sizes(k={k},l={l},n<={max_n})",
            "sizes",
            range(max(k + l, 2 * k), max_n + 1),
            lambda n: len(constructions.ekr_family(Profile(n, k, l))),
            lambda n: formulas.g_ekr_value(n, k, l).value,
        )
    for k, l in pairs:
        _size_sweep(
            report,
            f"increment-sizes(k={k},l={l},n<{max_n})",
            "growth counts",
            range(k + l, max_n),
            lambda n: len(constructions.inductive_extend(VectorFamily(Profile(n, k, l)))),
            lambda n: formulas.increment_value(n, k, l).value,
        )
    for k, l in pairs:
        _size_sweep(
            report,
            f"split-sizes(k={k},l={l},n<={max_n})",
            "sizes",
            range(k + l, max_n + 1),
            lambda n: len(constructions.best_split_family(Profile(n, k, l))),
            lambda n: formulas.p_split(n, k, l).value,
        )

    # validity of all three constructions under the pairwise scans, small scale
    for k, l in pairs:
        for n in range(max(k + l, 2 * k), 9):
            profile = Profile(n, k, l)
            floor_spec = solver.target_spec(profile, "g")
            ekr = constructions.ekr_family(profile)
            ekr_ok = solver.verify_family(ekr, floor_spec).ok
            grown_ok = solver.verify_family(constructions.inductive_extend(ekr), floor_spec).ok
            split = constructions.best_split_family(profile)
            split_ok = solver.verify_family(split, solver.target_spec(profile, "m")).ok
            report.add(
                f"validity(n={n},k={k},l={l})",
                "ekr, inductive, split all valid",
                f"ekr={_fmt(ekr_ok)}, inductive={_fmt(grown_ok)}, split={_fmt(split_ok)}",
                ekr_ok and grown_ok and split_ok,
                PROVENANCE_CONSTRUCTION,
            )
    return report


def _random_graph(rng: random.Random, n: int, p: float) -> solver.ConflictGraph:
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return solver.ConflictGraph(adj)


def _pairwise_adjacency(pairs: Sequence[tuple[int, int]], spec: solver.ForbiddenSpec) -> list[int]:
    """The conflict graph by its definition: spec tested on every product of two mask pairs."""
    adj = [0] * len(pairs)
    for a, pair in enumerate(pairs):
        for b, prod in enumerate(products(pair, pairs[a + 1:]), a + 1):
            if spec.forbids(prod):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def _closure_graph_by_definition(down: Sequence[int], adj: Sequence[int]) -> tuple[int, list[int]]:
    """(live, H) of shifting.closure_graph by its definition, given down(u) as a mask per u.

    reach[u] holds every vertex adjacent to a member of down(u): u is
    live when reach[u] misses down(u), and H joins live u to each live
    v != u whose down(v) meets reach[u], tested for each ordered pair.
    """
    n = len(adj)
    reach = [0] * n
    for u, below in enumerate(down):
        for a in range(n):
            if below >> a & 1:
                reach[u] |= adj[a]
    live = [u for u in range(n) if not reach[u] & down[u]]
    graph = [0] * n
    for u in live:
        for v in live:
            if v != u and reach[u] & down[v]:
                graph[u] |= 1 << v
    return sum(1 << u for u in live), graph


def _setup_mismatch(profile: Profile) -> str:
    """First difference of the solver's setup from its pairwise definition.

    The g and m conflict graphs against _pairwise_adjacency, the shift
    closure against a pairwise precedes scan (downward, closed here over
    the cover table, and upward, shifting._up_sets), and the g and m
    closure graphs against _closure_graph_by_definition on that scan.
    """
    family = enumerate_all(profile)
    members = family.members
    order = shifting.shift_order(family.masks)
    ranked = [members[i] for i in order]
    pairs = [family.masks[i] for i in order]
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    ranked_graphs = {}
    for target in ("g", "m"):
        spec = solver.target_spec(profile, target)
        pairwise = _pairwise_adjacency(family.masks, spec)
        if list(solver.build_conflict_graph(profile, spec).adj) != pairwise:
            return f"{target} conflict graph"
        ranked_graphs[target] = [
            sum(1 << rank[low.bit_length() - 1] for low in bits(pairwise[i])) for i in order
        ]
    down = [1 << b for b in range(len(ranked))]
    up = list(down)
    for b in range(len(ranked)):
        for a in range(b):
            if shifting.precedes(ranked[a], ranked[b]):
                down[b] |= 1 << a
                up[a] |= 1 << b
    table = shifting._cover_table(pairs, profile.n)
    below = []
    for r, covers in enumerate(table):
        below.append(1 << r)
        for s in covers:
            below[r] |= below[s]
    if below != down:
        return "downward closure"
    if shifting._up_sets(table) != up:
        return "upward closure"
    for target, adj in ranked_graphs.items():
        lifted = shifting.closure_graph(pairs, profile.n, adj.__getitem__)
        if lifted != _closure_graph_by_definition(down, adj):
            return f"{target} closure graph"
    return ""


def _oracle_mismatches(cases) -> list[str]:
    """Disagreements with mis_bruteforce over (label, graph, solves) cases, in order.

    mis_exact(graph) and each (route, result) of solves must be exact and
    equal the oracle's value on graph.
    """
    mismatches = []
    for label, graph, solves in cases:
        oracle = solver.mis_bruteforce(graph).value
        for route, result in (("mis_exact", solver.mis_exact(graph, budget=60.0)), *solves):
            if not result.is_exact or result.value != oracle:
                mismatches.append(f"{label}, {route}: {result.value} vs {oracle}")
    return mismatches


def _suite_solver_oracle(seed: int = 20260815) -> VerificationReport:
    """Search and both solve routes against the exhaustive oracle; setup against pairwise scans.

    On each profile graph, mis_exact and solve_extremal with shift
    pruning on and off must each match mis_bruteforce on the class graph.
    The setup check reads the cover table's downward closure and
    shifting._up_sets: a fault in the up-sets need not show in the
    closure graphs.
    """
    report = VerificationReport("solver-oracle")
    random_graphs = 200

    # the g and m graphs are bit-sliced, and the shift closure, both ways,
    # and the closure graphs are generated; re-derive all six pairwise
    setup_profiles = [
        Profile(n, k, l) for n in range(3, 8) for k in range(2, n) for l in range(1, k)
        if k + l <= n
    ]
    mismatches = []
    for profile in setup_profiles:
        where = _setup_mismatch(profile)
        if where:
            mismatches.append(f"profile ({profile.n},{profile.k},{profile.l}): {where}")
    report.add_failures(f"setup-pairwise[{len(setup_profiles)}]", "mismatches", mismatches)

    profile_cases = [
        (profile, target, solver.target_spec(profile, target))
        for n in range(2, 9) for k in range(1, n + 1) for l in range(min(k, n - k) + 1)
        for profile in [Profile(n, k, l)] if profile.family_size() <= solver.BRUTEFORCE_VERTEX_CAP
        for target in (("m", "g") if profile.is_g_profile else ("m",))
    ]
    mismatches = _oracle_mismatches(
        (
            f"profile ({profile.n},{profile.k},{profile.l}), {spec.describe()}",
            solver.build_conflict_graph(profile, spec),
            (
                ("pruned solve", solver.solve_extremal(profile, target)),
                ("unpruned solve", solver.solve_extremal(profile, target, shifted_pruning=False)),
            ),
        )
        for profile, target, spec in profile_cases
    )
    report.add_failures(f"profile-graphs[{len(profile_cases)}]", "mismatches", mismatches)

    rng = random.Random(seed)
    mismatches = _oracle_mismatches(
        (f"graph {i} (p={p})", _random_graph(rng, 25, p), ())
        for i, p in zip(range(random_graphs), cycle((0.1, 0.3, 0.5)))
    )
    report.add_failures(f"random-graphs[{random_graphs}]", "mismatches", mismatches)
    return report


def _suite_p_increment() -> VerificationReport:
    """Split-count increment versus the claimed recursion, k, l <= 5 and n <= 60: informational."""
    report = VerificationReport("p-increment")

    r = formulas.p_increment_report(10, 2, 1)
    report.add(
        "increment(10,2,1)",
        f"claimed max({r.candidate_lower_l},{r.candidate_lower_k}) = "
        f"{max(r.candidate_lower_l, r.candidate_lower_k)}",
        f"actual increment {r.increment}; equality {_fmt(r.equality_holds)}",
        True,
        PROVENANCE_ORACLE,
        required=False,
    )

    total = 0
    eq_fail = 0
    avg_fail = 0
    min_fail = 0
    for k in range(1, 6):
        for l in range(1, 6):
            for n in range(k + l + 1, 61):
                rep = formulas.p_increment_report(n, k, l)
                total += 1
                if not rep.equality_holds:
                    eq_fail += 1
                if not rep.ge_average_holds:
                    avg_fail += 1
                if not rep.le_min_holds:
                    min_fail += 1
    report.add(
        "sweep(n<=60,k,l<=5)",
        f"{total} instances examined",
        f"equality fails {eq_fail}, >=average fails {avg_fail}, <=min fails {min_fail}",
        True,
        PROVENANCE_ORACLE,
        required=False,
    )
    report.add(
        "le-min-bound(n<=60,k,l<=5)",
        "0 violations",
        f"{min_fail} violations",
        min_fail == 0,
        PROVENANCE_ORACLE,
    )
    return report


_SUITES: dict[str, Callable[..., VerificationReport]] = {
    "theorem1": _suite_theorem1,
    "eq111": _suite_eq111,
    "bounds": _suite_bounds,
    "lemma1": _suite_lemma1,
    "lemma3": _suite_lemma3,
    "ratios": _suite_ratios,
    "precedes": _suite_precedes,
    "constructions": _suite_constructions,
    "solver-oracle": _suite_solver_oracle,
    "p-increment": _suite_p_increment,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def _suite(name: str) -> Callable[..., VerificationReport]:
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    return fn


def suite_parameters(name: str) -> frozenset[str]:
    """Names of the keyword parameters one suite accepts."""
    return frozenset(inspect.signature(_suite(name)).parameters)


def run_suite(name: str, **params) -> VerificationReport:
    """Run one named suite; unknown names or parameters raise ValueError."""
    unknown = sorted(params.keys() - suite_parameters(name))
    if unknown:
        raise ValueError(f"unknown suite parameters: {unknown}")
    return _suite(name)(**params)
