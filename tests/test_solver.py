"""Conflict graphs and the exact maximum-independent-set machinery."""

import hashlib
import inspect
import random
import sys
import time
from collections import Counter
from dataclasses import replace
from itertools import combinations, count, permutations
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from signedfam import (
    ForbiddenSpec,
    Profile,
    SignedVector,
    VectorFamily,
    enumerate_all,
    is_shifted,
    precedes,
    scalar_product,
    solver,
    suites,
    vectors,
)
from signedfam.constructions import best_split_family
from signedfam.formulas import g_closed_l1
from signedfam.shifting import _cover_table, _up_sets, closure_graph, shift_ij, shift_order
from signedfam.vectors import bits
from signedfam.solver import (
    ConflictGraph,
    VertexCapExceeded,
    build_conflict_graph,
    greedy_seed_g,
    mis_bruteforce,
    mis_exact,
    solve_extremal,
    target_spec,
    verify_family,
)


class TestForbiddenSpec:
    def test_exact_semantics(self):
        spec = ForbiddenSpec.exact({-2, -4})
        assert spec.forbids(-2) and spec.forbids(-4)
        assert not spec.forbids(0) and not spec.forbids(-3)

    def test_below_semantics(self):
        spec = ForbiddenSpec.all_below(0)
        assert spec.forbids(-1) and spec.forbids(-5)
        assert not spec.forbids(0) and not spec.forbids(2)

    def test_describe(self):
        assert ForbiddenSpec.exact({-4, -2}).describe() == "exact:-4,-2"
        assert ForbiddenSpec.all_below(0).describe() == "below:0"

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            ForbiddenSpec()
        with pytest.raises(ValueError):
            ForbiddenSpec(exact_values=frozenset({-2}), below=0)
        with pytest.raises(ValueError):
            ForbiddenSpec.exact(set())


def degrees(g):
    """Degree of every vertex of g, read off its adjacency masks."""
    return [mask.bit_count() for mask in g.adj]


def n_edges(g):
    return sum(degrees(g)) // 2


class TestConflictGraph:
    def test_frozen_shapes(self):
        g = build_conflict_graph(Profile(4, 2, 1), ForbiddenSpec.exact({-2}))
        assert (g.n_vertices, n_edges(g)) == (12, 12)
        assert degrees(g) == [2] * 12

        g = build_conflict_graph(Profile(6, 3, 2), ForbiddenSpec.exact({-4}))
        assert (g.n_vertices, n_edges(g)) == (60, 90)
        assert degrees(g) == [3] * 60

    def test_regular_degree_grows_with_room(self):
        g = build_conflict_graph(Profile(7, 3, 2), ForbiddenSpec.exact({-4}))
        assert (g.n_vertices, n_edges(g)) == (210, 630)
        assert degrees(g) == [6] * 210

    def test_tiny_graph(self):
        g = build_conflict_graph(Profile(3, 1, 1), ForbiddenSpec.exact({-2}))
        assert (g.n_vertices, n_edges(g)) == (6, 3)

    def test_vertex_cap(self):
        with pytest.raises(VertexCapExceeded):
            build_conflict_graph(Profile(12, 3, 2), ForbiddenSpec.exact({-4}))
        # raising the cap unblocks a solve of the same class
        p = Profile(12, 3, 2)
        res = solve_extremal(p, "g", budget=0.0, vertex_cap=8000)
        assert (res.status, res.nodes_explored) == ("lower_bound_timeout", 0)
        assert p.family_size() == 7920
        assert res.witness.members == greedy_seed_g(p).members

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="itself"):
            ConflictGraph([0b01, 0b00])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            ConflictGraph([0b10, 0b00])

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError, match="out of range"):
            ConflictGraph([0b100, 0b000])

    @pytest.mark.parametrize("n_vertices", [8, 3])
    def test_rejects_a_family_of_another_size(self, n_vertices):
        family = enumerate_all(Profile(3, 1, 1))
        assert len(family) == 6
        with pytest.raises(ValueError, match=f"family of 6 members for {n_vertices} vertices"):
            ConflictGraph([0] * n_vertices, family)


@st.composite
def small_profiles(draw):
    """Any profile with n <= 8, l = 0 and l >= k included."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    l = draw(st.integers(0, n - k))
    return Profile(n, k, l)


SPECS = [
    ForbiddenSpec.all_below(0),
    ForbiddenSpec.all_below(3),
    ForbiddenSpec.exact({-4, -2}),
    ForbiddenSpec.exact({-1, 0, 2}),
]


class TestGeneratedSetup:
    """The bit-sliced conflict graph and the shift closure against pairwise scans."""

    @settings(max_examples=40, deadline=None)
    @given(small_profiles())
    @example(Profile(5, 2, 0))  # l = 0: disjoint supports
    @example(Profile(7, 4, 3))  # k = l + 1
    @example(Profile(5, 1, 2))  # l > k: no edges
    def test_min_product_graph_matches_pairwise(self, p):
        spec = ForbiddenSpec.exact({-2 * p.l})
        g = build_conflict_graph(p, spec)
        assert list(g.adj) == suites._pairwise_adjacency(enumerate_all(p).masks, spec)
        degree = comb(p.k, p.l) * comb(p.n - p.k - p.l, p.k - p.l) if p.k >= p.l else 0
        assert degrees(g) == [degree] * g.n_vertices

    @settings(max_examples=40, deadline=None)
    @given(small_profiles(), st.sampled_from(SPECS), st.randoms(use_true_random=False))
    @example(Profile(6, 3, 2), ForbiddenSpec.all_below(0), random.Random(0))
    @example(Profile(6, 3, 3), ForbiddenSpec.exact({6}), random.Random(0))  # v.v is never an edge
    def test_any_spec_on_any_subfamily_matches_pairwise(self, p, spec, rng):
        family = VectorFamily(p, [v for v in enumerate_all(p).members if rng.random() < 0.5])
        reference = suites._pairwise_adjacency(family.masks, spec)
        assert solver._adjacency(family.masks, p, spec) == reference
        # any member order, as the shift-pruned search builds its graph in rank order
        pairs = list(family.masks)
        rng.shuffle(pairs)
        assert solver._adjacency(pairs, p, spec) == suites._pairwise_adjacency(pairs, spec)

    @settings(max_examples=40, deadline=None)
    @given(small_profiles())
    @example(Profile(5, 2, 0))
    @example(Profile(7, 4, 3))
    def test_closure_matches_pairwise_precedes(self, p):
        family = enumerate_all(p)
        members = family.members
        order = shift_order(family.masks)
        ranked = [members[i] for i in order]
        table = _cover_table([family.masks[i] for i in order], p.n)
        down = []
        for r, covers in enumerate(table):
            down.append(1 << r)
            for s in covers:
                down[r] |= down[s]
        up = _up_sets(table)
        assert sorted(order) == list(range(len(members)))
        for b in range(len(ranked)):
            wb = ranked[b]
            for a in range(b):
                expected = precedes(ranked[a], wb)
                assert bool(down[b] >> a & 1) == expected
                assert bool(up[a] >> b & 1) == expected
            assert down[b] >> b == 1
            assert up[b] & ((2 << b) - 1) == 1 << b

    def test_oracle_suite_catches_an_asymmetric_builder_graph(self, monkeypatch):
        # a graph given with its family skips the symmetry check, so the
        # solver-oracle suite's pairwise reference is what catches a one-way edge
        built = solver.build_conflict_graph

        def one_way(profile, spec):
            graph = built(profile, spec)
            adj = list(graph.adj)
            if spec == ForbiddenSpec.all_below(0):
                adj[0] |= 1 << (len(adj) - 1)
                adj[-1] &= ~1
            return ConflictGraph(adj, graph.family)

        monkeypatch.setattr(solver, "build_conflict_graph", one_way)
        with pytest.raises(ValueError, match="asymmetric"):
            ConflictGraph(one_way(Profile(6, 3, 2), ForbiddenSpec.all_below(0)).adj)
        report = suites.run_suite("solver-oracle")
        (case,) = [c for c in report.cases if c.case.startswith("setup-pairwise[")]
        assert not case.passed
        assert case.actual.startswith("22 mismatches; first profile (3,2,1): m conflict graph")


class TestVerifyFamily:
    def test_clean_family(self):
        p = Profile(4, 2, 1)
        fam = VectorFamily(p, [SignedVector.parse("++-0"), SignedVector.parse("++0-")])
        check = verify_family(fam, ForbiddenSpec.exact({-2}))
        assert check.ok
        assert check.pairs_checked == 1
        assert check.violation is None

    def test_violation_reported_with_product(self):
        p = Profile(4, 2, 1)
        a, b = SignedVector.parse("++-0"), SignedVector.parse("-0++")
        check = verify_family(VectorFamily(p, [a, b]), ForbiddenSpec.exact({-2}))
        assert not check.ok
        va, vb, prod = check.violation
        assert {va, vb} == {a, b}
        assert prod == -2


def random_graph(n, density, rng):
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return ConflictGraph(adj)


def thirty_random_graphs():
    rng = random.Random(7)
    return [random_graph(rng.randrange(5, 19), rng.choice([0.15, 0.35, 0.6]), rng) for _ in range(30)]


class TestMisExact:
    def test_edgeless(self):
        res = mis_exact(ConflictGraph([0] * 7))
        assert res.value == 7
        assert res.is_exact

    def test_complete(self):
        n = 6
        full = (1 << n) - 1
        res = mis_exact(ConflictGraph([full & ~(1 << v) for v in range(n)]))
        assert res.value == 1

    def test_matches_bruteforce_on_random_graphs(self):
        for g in thirty_random_graphs():
            assert mis_exact(g).value == mis_bruteforce(g).value

    def test_witness_is_independent(self):
        g = build_conflict_graph(Profile(5, 2, 1), ForbiddenSpec.exact({-2}))
        res = mis_exact(g)
        for i in res.witness_indices:
            for j in res.witness_indices:
                assert not g.adj[i] & (1 << j) or i == j
        assert len(res.witness) == res.value

    def test_budget_exhaustion_keeps_lower_bound(self):
        g = random_graph(60, 0.15, random.Random(11))
        res = mis_exact(g, budget=0.0)
        assert res.status == "lower_bound_timeout"
        assert not res.is_exact
        assert res.value >= 1  # greedy incumbent survives
        assert res.value <= mis_exact(g, budget=60.0).value
        for i in res.witness_indices:
            assert not g.adj[i] & sum(1 << j for j in res.witness_indices if j != i)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_nan_and_negative_budgets_count_as_spent(self, budget):
        # the greedy incumbent at the first deadline check; 60 s gives 20 at 427 nodes
        res = mis_exact(random_graph(60, 0.15, random.Random(11)), budget=budget)
        assert (res.value, res.status, res.nodes_explored) == (14, "lower_bound_timeout", 0)

    @pytest.mark.parametrize("budget, value", [(1, 14), (2, 14), (100, 19)])
    def test_search_reads_the_clock_before_every_node(self, budget, value, monkeypatch):
        # each reading of this clock is one second later: entry reads 0, so
        # the budget-th check, before node number budget, is the first to
        # reach the deadline; unchecked, the search finishes at 427 nodes
        ticks = count()
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
        res = mis_exact(random_graph(60, 0.15, random.Random(11)), budget=budget)
        assert (res.value, res.status, res.nodes_explored) == (value, "lower_bound_timeout", budget - 1)


def subset_scan(adj):
    """Value, lexicographically first largest set and maximal-set count, by every vertex subset.

    The graph has a vertex: the empty graph's one maximal set, the empty
    set, is not counted by the oracle.
    """
    n = len(adj)
    independent = [s for s in range(1 << n) if not any(adj[v] & s for v in range(n) if s >> v & 1)]
    maximal = [s for s in independent if all(adj[v] & s for v in range(n) if not s >> v & 1)]
    best = min(maximal, key=lambda s: (-s.bit_count(), [v for v in range(n) if s >> v & 1]))
    return best.bit_count(), tuple(v for v in range(n) if best >> v & 1), len(maximal)


def networkx_bruteforce(graph):
    """The reference oracle: networkx lists every maximal clique of the complement."""
    import networkx as nx

    n = graph.n_vertices
    start = time.monotonic()
    comp = nx.Graph()
    comp.add_nodes_from(range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if not graph.adj[a] & (1 << b):
                comp.add_edge(a, b)
    best: tuple[int, ...] = ()
    count = 0
    for clique in nx.find_cliques(comp):
        count += 1
        cand = tuple(sorted(clique))
        if (len(cand), [-i for i in cand]) > (len(best), [-i for i in best]):
            best = cand
    return solver._result(graph.family, range(n), sum(1 << i for i in best), True, count, start)


def timeless(result):
    return replace(result, elapsed=0.0)


class TestMisBruteforce:
    def test_cap(self):
        with pytest.raises(ValueError, match="25"):
            mis_bruteforce(ConflictGraph([0] * 26))

    def test_empty_graph(self):
        res = mis_bruteforce(ConflictGraph([]))
        assert (res.value, res.status, res.nodes_explored, res.witness_indices) == (0, "exact", 0, ())
        assert timeless(res) == timeless(networkx_bruteforce(ConflictGraph([])))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_a_subset_scan_on_every_labelled_graph(self, n):
        pairs = list(combinations(range(n), 2))
        for edges in range(1 << len(pairs)):
            adj = [0] * n
            for e, (a, b) in enumerate(pairs):
                if edges >> e & 1:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
            res = mis_bruteforce(ConflictGraph(adj))
            assert res.status == "exact"
            assert (res.value, res.witness_indices, res.nodes_explored) == subset_scan(adj), adj

    @pytest.mark.parametrize("seed", [None, 7])
    def test_matches_networkx_on_every_suite_graph(self, seed, monkeypatch):
        checked = []

        def compared(graph):
            res = mis_bruteforce(graph)
            assert timeless(res) == timeless(networkx_bruteforce(graph)), graph.adj
            checked.append(graph)
            return res

        monkeypatch.setattr(solver, "mis_bruteforce", compared)
        params = {} if seed is None else {"seed": seed}
        assert suites.run_suite("solver-oracle", **params).ok
        assert len(checked) == 256
        assert sum(g.family is not None for g in checked) == 56

    def test_matches_networkx_on_random_graphs(self):
        for g in thirty_random_graphs():
            assert timeless(mis_bruteforce(g)) == timeless(networkx_bruteforce(g)), g.adj

    def test_tiny_profile_value(self):
        g = build_conflict_graph(Profile(3, 1, 1), ForbiddenSpec.exact({-2}))
        assert mis_bruteforce(g).value == 3


class TestGreedySeed:
    def test_meets_known_optima(self):
        for (n, k, l), value in [((4, 2, 1), 6), ((5, 2, 1), 12), ((6, 3, 2), 30)]:
            assert len(greedy_seed_g(Profile(n, k, l))) == value

    def test_seed_avoids_floor(self):
        fam = greedy_seed_g(Profile(7, 3, 2))
        assert verify_family(fam, ForbiddenSpec.exact({-4})).ok

    def test_requires_g_profile(self):
        with pytest.raises(ValueError):
            greedy_seed_g(Profile(4, 2, 2))


class TestSolveExtremal:
    def test_frozen_g_values(self):
        for (n, k, l), value in [
            ((4, 2, 1), 6),
            ((5, 2, 1), 12),
            ((6, 3, 2), 30),
            ((5, 3, 2), 10),
        ]:
            res = solve_extremal(Profile(n, k, l), "g")
            assert res.is_exact
            assert res.value == value

    def test_frozen_m_values(self):
        for (n, k, l), value in [
            ((4, 2, 1), 4),
            ((5, 2, 1), 7),
            ((4, 1, 1), 4),
            ((5, 2, 2), 6),
        ]:
            res = solve_extremal(Profile(n, k, l), "m", budget=120.0)
            assert res.is_exact
            assert res.value == value

    def test_g_witness_shifted_and_valid(self):
        res = solve_extremal(Profile(5, 2, 1), "g")
        assert len(res.witness) == res.value
        assert_class_witness(res, Profile(5, 2, 1))
        assert is_shifted(res.witness)
        assert verify_family(res.witness, ForbiddenSpec.exact({-2})).ok

    def test_m_witness_valid(self):
        res = solve_extremal(Profile(4, 2, 1), "m", budget=60.0)
        assert verify_family(res.witness, ForbiddenSpec.all_below(0)).ok
        assert_class_witness(res, Profile(4, 2, 1))

    def test_pruning_agrees_with_plain_search(self):
        # n < 2k leaves a class edgeless; the 7 others all have n <= 7
        profiles = [
            Profile(n, k, l)
            for n in range(2, 20)
            for k in range(2, n + 1)
            for l in range(1, min(k, n - k + 1))
            if comb(n, k) * comb(n - k, l) <= 150
        ]
        assert len(profiles) == 52
        assert sum(p.n >= 2 * p.k for p in profiles) == 7
        for p in profiles:
            pruned = solve_extremal(p, "g", shifted_pruning=True)
            plain = solve_extremal(p, "g", shifted_pruning=False)
            assert pruned.is_exact and plain.is_exact
            assert pruned.value == plain.value, p

    def test_g_needs_g_profile(self):
        with pytest.raises(ValueError, match="k > l"):
            solve_extremal(Profile(4, 2, 2), "g")

    def test_compression_keeps_every_product_floor(self):
        # the lemma behind shift pruning for both targets, over all of
        # {0,+1,-1}^n for n <= 5 and every shift S at i < j, for v that S moves
        cases = 0
        for n in range(2, 6):
            vectors = [
                SignedVector(n, pos, neg)
                for pos in range(1 << n)
                for neg in range(1 << n)
                if not pos & neg
            ]
            index = {v: a for a, v in enumerate(vectors)}
            prod = [[scalar_product(v, w) for w in vectors] for v in vectors]
            for i, j in combinations(range(1, n + 1), 2):
                image = [index[shift_ij(v, i, j)] for v in vectors]
                moved = [a for a in range(len(vectors)) if image[a] != a]
                for a in moved:
                    va = vectors[a]
                    gain = va.value_at(j) - va.value_at(i)
                    for b, wb in enumerate(vectors):
                        if image[b] != b:
                            # both move: S(v).S(w) = v.w and S(v).w = v.S(w)
                            assert prod[image[a]][image[b]] == prod[a][b]
                            assert prod[image[a]][b] == prod[a][image[b]]
                        else:
                            # only v moves: S(v).w - v.w = (v_j - v_i)(w_i - w_j) >= 0
                            drop = wb.value_at(i) - wb.value_at(j)
                            assert prod[image[a]][b] - prod[a][b] == gain * drop >= 0
                        cases += 1
        assert cases == 27 + 729 + 13122 + 196830  # C(n,2) * 3^(n-1) * 3^n

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            solve_extremal(Profile(4, 2, 1), "q")

    def test_conflicting_seed_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "greedy_seed_g", enumerate_all)
        with pytest.raises(ValueError, match="independent"):
            solve_extremal(Profile(6, 3, 2), "g")

    def test_shifted_budget_exhaustion_keeps_lower_bound(self, monkeypatch):
        limit = sys.getrecursionlimit()
        p = Profile(8, 3, 2)
        # the budget is spent before the shift closure starts: the seed comes back
        with monkeypatch.context() as patched:
            patched.setattr(solver, "closure_graph", None)  # never called
            solved = solve_extremal(p, "g", budget=0.0)
        assert (solved.value, solved.status, solved.nodes_explored) == (230, "lower_bound_timeout", 0)
        assert not solved.is_exact
        assert solved.witness.members == greedy_seed_g(p).members
        assert len(solved.witness) == solved.value
        assert_class_witness(solved, p)
        assert verify_family(solved.witness, ForbiddenSpec.exact({-4})).ok
        assert is_shifted(solved.witness)
        # on a built closure graph, a passed deadline stops _bnb before its first node
        spec = ForbiddenSpec.exact({-4})
        family = enumerate_all(p)
        pairs = [family.masks[i] for i in shift_order(family.masks)]
        adj = solver._adjacency(pairs, p, spec)
        live, closed = closure_graph(pairs, p.n, adj.__getitem__)
        seed = sum(1 << r for r, pair in enumerate(pairs) if pair in solved.witness.masks)
        assert solver._bnb(closed, live, seed, time.monotonic()) == (seed, 0, False)
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("target", ["g", "m"])
    def test_budget_zero_stops_before_the_closure(self, target):
        # the setup before the closure takes about 0.1 s here; the closure
        # of g(11,3,2) alone took 0.6 s when no check came before it
        p = Profile(11, 3, 2)
        start = time.monotonic()
        res = solve_extremal(p, target, budget=0.0)
        wall = time.monotonic() - start
        assert (res.status, res.nodes_explored) == ("lower_bound_timeout", 0)
        assert wall < 0.5
        seed = greedy_seed_g(p) if target == "g" else best_split_family(p)
        assert res.witness.members == seed.members
        assert_class_witness(res, p)
        assert verify_family(res.witness, target_spec(p, target)).ok

    def test_unpruned_budget_exhaustion_keeps_lower_bound(self):
        res = solve_extremal(Profile(7, 3, 1), "m", budget=0.0, shifted_pruning=False)
        assert (res.value, res.status, res.nodes_explored) == (28, "lower_bound_timeout", 0)
        assert len(res.witness) == res.value
        assert_class_witness(res, Profile(7, 3, 1))
        assert verify_family(res.witness, ForbiddenSpec.all_below(0)).ok

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_nan_and_negative_budgets_count_as_spent(self, budget):
        p = Profile(8, 3, 2)
        pruned = solve_extremal(p, "g", budget=budget)
        assert (pruned.value, pruned.status, pruned.nodes_explored) == (230, "lower_bound_timeout", 0)
        assert pruned.witness.members == greedy_seed_g(p).members
        unpruned = solve_extremal(Profile(7, 3, 1), "m", budget=budget, shifted_pruning=False)
        assert (unpruned.value, unpruned.status, unpruned.nodes_explored) == (28, "lower_bound_timeout", 0)
        assert_class_witness(unpruned, Profile(7, 3, 1))

    def test_infinite_budget_is_exact(self):
        pruned = solve_extremal(Profile(8, 3, 2), "g", budget=float("inf"))
        assert (pruned.value, pruned.status, pruned.nodes_explored) == (230, "exact", 1)
        unpruned = solve_extremal(Profile(7, 3, 1), "m", budget=float("inf"), shifted_pruning=False)
        assert (unpruned.value, unpruned.status, unpruned.nodes_explored) == (28, "exact", 611)

    def test_budget_covers_setup(self):
        # m(11,3,2) takes about 0.2 s to its graph and seed, 0.3 s more to
        # its closure graph and 1.2 s in all, on 2 cores
        start = time.monotonic()
        res = solve_extremal(Profile(11, 3, 2), "m", budget=0.25)
        wall = time.monotonic() - start
        assert res.status == "lower_bound_timeout"
        assert wall < 5.0
        assert res.elapsed >= 0.9 * wall
        assert verify_family(res.witness, ForbiddenSpec.all_below(0)).ok

    @pytest.mark.parametrize("n, value", [(10, 840), (11, 2310)])
    def test_edgeless_class_needs_no_search(self, n, value):
        # n < 2k: no two members reach the product -2l, so g is the whole class
        p = Profile(n, 6, 1)
        res = solve_extremal(p, "g", budget=0.0)
        assert (res.value, res.status, res.nodes_explored) == (value, "exact", 0)
        assert value == p.family_size()
        assert res.witness_indices == tuple(range(value))
        assert res.witness.members == enumerate_all(p).members
        assert verify_family(res.witness, ForbiddenSpec.exact({-2})).ok
        assert_class_witness(res, p)
        with pytest.raises(VertexCapExceeded):
            solve_extremal(p, "g", vertex_cap=value - 1)

    def test_vertex_cap_propagates(self):
        with pytest.raises(VertexCapExceeded):
            solve_extremal(Profile(6, 3, 2), "g", vertex_cap=10)

    @pytest.mark.parametrize(
        "nkl, target, pruning, budget",
        [
            ((8, 3, 2), "g", True, 60.0),
            ((7, 3, 2), "m", True, 60.0),
            ((7, 3, 1), "m", False, 60.0),
            ((10, 6, 1), "g", True, 60.0),  # edgeless
            ((8, 3, 2), "g", True, 0.0),  # the seed comes back
        ],
    )
    def test_one_graph_build_per_solve(self, nkl, target, pruning, budget, monkeypatch):
        # a solve sets up one row builder and computes its graph's rows from it
        built = solver._row_builder
        calls = []

        def counted(*args):
            calls.append(args)
            return built(*args)

        monkeypatch.setattr(solver, "_row_builder", counted)
        res = solve_extremal(Profile(*nkl), target, budget=budget, shifted_pruning=pruning)
        assert len(calls) == 1
        assert res.is_exact == (budget > 0)

    @staticmethod
    def rows_computed(monkeypatch, *args, **kwargs):
        """(solve_extremal(*args, **kwargs), the rows it computed in call order)."""
        built = solver._row_builder
        computed = []

        def counted(*builder_args):
            row = built(*builder_args)

            def counted_row(r):
                computed.append(r)
                return row(r)

            return counted_row

        monkeypatch.setattr(solver, "_row_builder", counted)
        res = solve_extremal(*args, **kwargs)
        monkeypatch.undo()
        return res, computed

    @pytest.mark.parametrize(
        "nkl, target, budget",
        [((8, 3, 2), "g", 60.0), ((7, 3, 2), "m", 60.0), ((8, 3, 2), "g", 0.0)],
    )
    def test_a_pruned_solve_computes_only_the_rows_it_reads(self, nkl, target, budget, monkeypatch):
        # each row at most once: the seed's for its check, then those the closure reads
        p = Profile(*nkl)
        res, computed = self.rows_computed(monkeypatch, p, target, budget=budget)
        assert len(computed) == len(set(computed))
        family = enumerate_all(p)
        pairs = [family.masks[i] for i in shift_order(family.masks)]
        seed_family = greedy_seed_g(p) if target == "g" else best_split_family(p)
        seed = {r for r, pair in enumerate(pairs) if pair in set(seed_family.masks)}
        if budget == 0:
            assert set(computed) == seed | {0}
            assert res.witness.masks == seed_family.masks
            return
        adj = solver._adjacency(pairs, p, target_spec(p, target))
        live, _ = closure_graph(pairs, p.n, adj.__getitem__)
        assert set(computed) == seed | {r for r in range(len(pairs)) if live >> r & 1}
        assert len(computed) < len(pairs)

    def test_edgeless_and_unpruned_row_counts(self, monkeypatch):
        # every vertex of a class has the same degree: row 0 decides that there are no edges
        res, computed = self.rows_computed(monkeypatch, Profile(10, 6, 1), "g")
        assert (res.value, res.nodes_explored, computed) == (840, 0, [0])
        res, computed = self.rows_computed(monkeypatch, Profile(7, 3, 1), "m", shifted_pruning=False)
        assert (res.value, res.status) == (28, "exact")
        assert sorted(computed) == list(range(Profile(7, 3, 1).family_size()))

    @pytest.mark.parametrize(
        "nkl, target, pruning, budget",
        [
            ((8, 3, 2), "g", True, 60.0),
            ((7, 3, 1), "m", False, 60.0),
            ((10, 6, 1), "g", True, 60.0),  # edgeless
            ((8, 3, 2), "g", True, 0.0),  # the seed comes back
            ((6, 3, 2), "m", None, None),  # build_conflict_graph and mis_exact
        ],
    )
    def test_a_solve_builds_no_member_objects(self, nkl, target, pruning, budget, monkeypatch):
        # the solve path reads the class's mask pairs; the witness is not read here.
        # Every vector is built through SignedVector's own constructor, so
        # counting its __post_init__ counts every vector built
        check = vectors.SignedVector.__post_init__
        calls = []

        def counted(v):
            calls.append(v)
            return check(v)

        monkeypatch.setattr(vectors.SignedVector, "__post_init__", counted)
        p = Profile(*nkl)
        if budget is None:
            res = mis_exact(build_conflict_graph(p, target_spec(p, target)))
        else:
            res = solve_extremal(p, target, budget=budget, shifted_pruning=pruning)
        assert calls == []
        assert res.is_exact == (budget != 0.0)


def assert_class_witness(res, profile):
    """witness_indices ascend, and index the class to give the witness.

    The witness also equals the checked constructor's family of its
    members, in the same order.
    """
    indices = list(res.witness_indices)
    assert indices == sorted(set(indices))
    members = enumerate_all(profile).members
    assert [members[i] for i in indices] == list(res.witness.members)
    checked = VectorFamily(profile, list(res.witness.members))
    assert res.witness.members == checked.members and res.witness == checked


# every class the exhaustive oracle can take
ORACLE_CLASSES = [
    Profile(n, k, l)
    for n in range(1, solver.BRUTEFORCE_VERTEX_CAP + 1)
    for k in range(1, n + 1)
    for l in range(n - k + 1)
    if comb(n, k) * comb(n - k, l) <= solver.BRUTEFORCE_VERTEX_CAP
]


def unpruned_oracle_sweep(target):
    """(profile, unpruned solve, unseeded search, mis_bruteforce value) per ORACLE_CLASSES class of target.

    The unseeded search is the unpruned solve's orbital _bnb started
    from an empty incumbent, as (best mask, graph).  On these classes the
    solve's first incumbent is already optimal, so only the unseeded
    search shows whether the search finds the optimum itself.
    """
    for p in ORACLE_CLASSES:
        if target == "m" or p.is_g_profile:
            graph = build_conflict_graph(p, target_spec(p, target))
            full = (1 << graph.n_vertices) - 1
            best, _, finished = solver._bnb(graph.adj, full, 0, float("inf"), graph.family)
            assert finished
            solved = solve_extremal(p, target, shifted_pruning=False)
            yield p, solved, (best, graph), mis_bruteforce(graph).value


def permuted(v, perm):
    """v with coordinate i moved to perm[i]."""

    def move(mask):
        return sum(1 << perm[low.bit_length() - 1] for low in bits(mask))

    return SignedVector(v.dim, move(v.pos), move(v.neg))


# every class of at most 200 vectors with n >= 2
CLASSES_UP_TO_200 = [
    Profile(n, k, l)
    for n in range(2, 12)
    for k in range(1, n + 1)
    for l in range(n - k + 1)
    if comb(n, k) * comb(n - k, l) <= 200
]


def unseeded_sweep():
    """(profile, target, unseeded search, graph, pruned value) per CLASSES_UP_TO_200 class and target with an edge.

    The targets are m and, where it applies, g.  The unseeded search is
    the orbital _bnb of the unpruned route started from an empty
    incumbent; the shift-pruned solve gives the value it must reach.
    """
    for p in CLASSES_UP_TO_200:
        for target in ("m", "g") if p.is_g_profile else ("m",):
            graph = build_conflict_graph(p, target_spec(p, target))
            if not any(graph.adj):
                continue
            full = (1 << graph.n_vertices) - 1
            best, _, finished = solver._bnb(graph.adj, full, 0, float("inf"), graph.family)
            assert finished
            yield p, target, best, graph, solve_extremal(p, target).value


class TestOrbit:
    """The orbits of unpruned solves' orbital branching, against brute force over S_n."""

    def test_matches_the_stabiliser_images(self):
        # two members share an _orbit_key under the taken vectors' columns
        # exactly when a permutation that fixes the taken vectors maps one onto the other
        rng = random.Random(21)
        checked = 0
        for n in range(1, 7):
            perms = list(permutations(range(n)))
            for k in range(1, n + 1):
                for l in range(n - k + 1):
                    family = enumerate_all(Profile(n, k, l))
                    members = family.members
                    plus, minus = solver._sign_masks(family.masks, n)
                    for _ in range(4):
                        taken = rng.sample(range(len(members)), rng.randint(0, min(3, len(members))))
                        v = rng.randrange(len(members))
                        fixing = [
                            perm for perm in perms
                            if all(permuted(members[t], perm) == members[t] for t in taken)
                        ]
                        images = {permuted(members[v], perm) for perm in fixing}
                        mask = sum(1 << t for t in taken)
                        columns = [(pos & mask, neg & mask) for pos, neg in zip(plus, minus)]
                        key = solver._orbit_key(members[v].pos, members[v].neg, columns)
                        for w in members:
                            assert (solver._orbit_key(w.pos, w.neg, columns) == key) == (w in images)
                        checked += 1
        assert checked == 4 * 56

    def test_unseeded_sweep_catches_orbits_that_ignore_the_taken_vectors(self, monkeypatch):
        # planted fault: the columns are taken against an empty mask, so every
        # orbit is taken under all of S_n; no class of the oracle sweep shows it
        key = solver._orbit_key
        monkeypatch.setattr(
            solver, "_orbit_key", lambda pos, neg, columns: key(pos, neg, [(0, 0)] * len(columns))
        )
        missed = [
            (p.n, p.k, p.l, target)
            for p, target, best, _, value in unseeded_sweep()
            if best.bit_count() != value
        ]
        assert missed == [(6, 2, 1, "g"), (7, 2, 1, "g"), (7, 3, 1, "g"), (8, 2, 1, "g"), (8, 3, 5, "m")]


class TestUnprunedRoot:
    """Unpruned solves, with orbital branching from the whole class at the root, against independent routes."""

    @pytest.mark.parametrize("target", ["m", "g"])
    def test_matches_oracle_on_every_small_class(self, target):
        swept = list(unpruned_oracle_sweep(target))
        assert len(swept) == {"m": 142, "g": 28}[target]
        for p, res, (unseeded, graph), value in swept:
            assert res.is_exact
            assert res.value == unseeded.bit_count() == value, p
            assert not any(graph.adj[low.bit_length() - 1] & unseeded for low in bits(unseeded))
            assert_class_witness(res, p)
            assert verify_family(res.witness, target_spec(p, target)).ok

    def test_unseeded_search_reaches_the_pruned_value_up_to_200(self):
        swept = list(unseeded_sweep())
        assert Counter(target for _, target, *_ in swept) == {"m": 60, "g": 8}
        for p, target, best, graph, value in swept:
            assert best.bit_count() == value, (p, target)
            assert not any(graph.adj[low.bit_length() - 1] & best for low in bits(best))

    def test_unpruned_g_721_matches_the_closed_form(self):
        p = Profile(7, 2, 1)
        assert p.family_size() == 105
        plain = solve_extremal(p, "g", shifted_pruning=False)
        assert plain.is_exact
        assert plain.value == g_closed_l1(7, 2) == 37
        assert_class_witness(plain, p)
        assert verify_family(plain.witness, ForbiddenSpec.exact({-2})).ok

    def test_unpruned_g_731_matches_pruning_and_closed_form(self):
        p = Profile(7, 3, 1)
        assert p.family_size() == 140
        plain = solve_extremal(p, "g", shifted_pruning=False)
        pruned = solve_extremal(p, "g")
        assert plain.is_exact and pruned.is_exact
        assert plain.value == pruned.value == g_closed_l1(7, 3) == 60
        assert verify_family(plain.witness, ForbiddenSpec.exact({-2})).ok

    def test_pruned_m_matches_unpruned_on_every_class_up_to_200(self):
        assert len(CLASSES_UP_TO_200) == 156
        spec = ForbiddenSpec.all_below(0)
        for p in CLASSES_UP_TO_200:
            pruned = solve_extremal(p, "m")
            plain = solve_extremal(p, "m", shifted_pruning=False)
            assert pruned.is_exact and plain.is_exact
            assert pruned.value == plain.value, p
            assert len(pruned.witness) == pruned.value
            assert verify_family(pruned.witness, spec).ok
            assert verify_family(plain.witness, spec).ok
            assert is_shifted(pruned.witness)

    def test_plain_engine_agrees_on_m_732(self):
        p = Profile(7, 3, 2)
        plain = mis_exact(build_conflict_graph(p, ForbiddenSpec.all_below(0)))
        rooted = solve_extremal(p, "m", shifted_pruning=False)
        assert plain.is_exact and rooted.is_exact
        assert plain.value == rooted.value == 33


class TestAveragingCap:
    """X(n) <= floor(n X(n-1) / (n - k - l)) along chains of solves, a bound with no compression.

    The members of an X(n) family that are 0 at coordinate i, with i
    deleted, form a valid family of the (n-1)-class: each product between
    them is kept.  Each member is 0 at n - k - l coordinates, so summing
    over i gives X(n) (n - k - l) <= n X(n-1).
    """

    def test_holds_on_every_step_up_to_1000_vectors(self):
        steps, tight = 0, set()
        for size in range(2, 6):
            for l in range(1, size):
                k = size - l
                for target in ("g", "m") if k > l else ("m",):
                    prev = solve_extremal(Profile(size, k, l), target)
                    n = size + 1
                    while comb(n, k) * comb(n - k, l) <= 1000:
                        res = solve_extremal(Profile(n, k, l), target)
                        assert res.is_exact and prev.is_exact
                        cap = n * prev.value // (n - size)
                        assert res.value <= cap, (target, n, k, l)
                        steps += 1
                        if res.value == cap:
                            tight.add((target, n, k, l))
                        prev, n = res, n + 1
        assert steps == 104
        assert tight == {("m", n, 1, 1) for n in range(4, 33)} | {
            ("m", 4, 1, 2), ("m", 9, 1, 2), ("m", 12, 1, 2), ("m", 6, 1, 4),
            ("m", 4, 2, 1), ("m", 9, 2, 1), ("m", 12, 2, 1),
            ("g", 10, 2, 1), ("g", 11, 2, 1), ("g", 12, 2, 1), ("g", 13, 2, 1),
            ("g", 5, 3, 1), ("m", 6, 4, 1), ("g", 6, 4, 1), ("g", 7, 4, 1),
        }


class TestSearchEffort:
    """Node counts that pin the strength of each engine."""

    def test_m_732_within_5000_nodes(self):
        res = solve_extremal(Profile(7, 3, 2), "m")
        assert res.is_exact and res.value == 33
        assert res.nodes_explored <= 5000

    def test_pruned_g_932_node_count(self):
        res = solve_extremal(Profile(9, 3, 2), "g")
        assert (res.value, res.status, res.nodes_explored) == (510, "exact", 1)

    @pytest.mark.parametrize(
        "profile, target, pruning, value, nodes",
        [
            ((8, 3, 2), "g", True, 230, 1),
            ((11, 3, 1), "g", True, 372, 1),
            ((7, 3, 1), "g", False, 60, 215),
            ((8, 2, 1), "m", False, 30, 87),
            ((7, 3, 1), "m", False, 28, 611),
            ((7, 3, 2), "m", False, 33, 165),
            # m is shift-pruned by default
            ((7, 3, 2), "m", None, 33, 49),
            ((8, 2, 1), "m", None, 30, 1),
            ((7, 3, 1), "m", None, 28, 9),
            ((7, 2, 2), "m", None, 25, 11),
            ((9, 3, 2), "m", None, 105, 159),
        ],
    )
    def test_search_tree_pinned(self, profile, target, pruning, value, nodes):
        res = solve_extremal(Profile(*profile), target, shifted_pruning=pruning)
        assert (res.value, res.status, res.nodes_explored) == (value, "exact", nodes)

    def test_mis_exact_search_tree_pinned(self):
        res = mis_exact(random_graph(60, 0.15, random.Random(11)))
        assert (res.value, res.status, res.nodes_explored) == (20, "exact", 427)

    def test_engines_do_not_recurse(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the recursion limit was changed")

        # 100 frames of headroom: a recursive search of the pruned m(9,4,2)
        # tree, 142 branchings deep, needs more
        depth = len(inspect.stack())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        try:
            g = solve_extremal(Profile(9, 3, 2), "g")
            m = solve_extremal(Profile(7, 3, 2), "m", shifted_pruning=False)
            deep = solve_extremal(Profile(9, 4, 2), "m")
        finally:
            monkeypatch.undo()
            sys.setrecursionlimit(limit)
        assert (g.value, g.status, g.nodes_explored) == (510, "exact", 1)
        assert (m.value, m.status, m.nodes_explored) == (33, "exact", 165)
        assert (deep.value, deep.status, deep.nodes_explored) == (155, "exact", 305)


def closure_graph_mismatches(build):
    """(profile, target) of every class with n <= 7 on which build differs from the definition.

    build(pairs, n, conflict_row) is checked against suites._closure_graph_by_definition,
    with each down(u) found through precedes, for g and m.
    """
    mismatches = []
    for n in range(1, 8):
        for k in range(1, n + 1):
            for l in range(n - k + 1):
                p = Profile(n, k, l)
                family = enumerate_all(p)
                order = shift_order(family.masks)
                ranked = [family.members[i] for i in order]
                pairs = [family.masks[i] for i in order]
                down = [
                    sum(1 << a for a, va in enumerate(ranked) if precedes(va, vb)) for vb in ranked
                ]
                for target in ("g", "m") if p.is_g_profile else ("m",):
                    adj = solver._adjacency(pairs, p, target_spec(p, target))
                    lifted = build(pairs, n, adj.__getitem__)
                    if lifted != suites._closure_graph_by_definition(down, adj):
                        mismatches.append(((n, k, l), target))
    return mismatches


class TestShiftedEngine:
    """The shift-pruned search against exhaustive search and against its earlier witnesses."""

    @pytest.mark.parametrize(
        "profile, target, value, digest",
        [
            ((8, 3, 2), "g", 230, "4d7d76f995077ba2be9c21e5707ed0e1b0593cbeef411cf85478fea164533332"),
            ((9, 3, 2), "g", 510, "86a112604247daa09b16c65927b7ae21275afc672187a20e08e387d5c0df1847"),
            ((7, 3, 2), "m", 33, "62bfb32a09745077398c2467476c193e7d695d716361d7de5fd2c4a0dc191ca2"),
            ((9, 3, 2), "m", 105, "e98627222a6d804bf132281692ca738e2561ee081291dc0a5a4cff9f20ad6768"),
        ],
        ids=["g-8-3-2", "g-9-3-2", "m-7-3-2", "m-9-3-2"],
    )
    def test_witnesses_do_not_depend_on_the_bound(self, profile, target, value, digest):
        """Pinned sha256 of witness_indices, as earlier searches found them.

        A regression pin: these four witnesses have held through every
        bound and through the move from a rank-order search of the
        conflict graph to _bnb on its closure graph.  The move changed
        some other m witnesses, which is allowed: a solve promises a
        largest shift-closed family, not a particular one.
        """
        res = solve_extremal(Profile(*profile), target)
        assert (res.value, res.status) == (value, "exact")
        assert hashlib.sha256(repr(res.witness_indices).encode()).hexdigest() == digest

    def test_matches_exhaustive_search_on_random_orders(self):
        """Random graphs of at most 16 vertices under random transitive orders.

        pred[v] is a random down-closed set of lower ranks, as the cover
        table's downward closure gives less v itself; the optimum is the
        largest independent set that holds the pred of each of its
        members.  live and H come from their definition, and _bnb on
        H[live] must reach the optimum with a set that is down-closed and
        independent, from an empty incumbent and from an optimum less its
        top-ranked member, which leaves no slack in the bound.
        """
        rng = random.Random(15)
        for _ in range(400):
            n = rng.randint(10, 16)
            adj = random_graph(n, rng.uniform(0.3, 0.8), rng).adj
            order_density = rng.uniform(0.0, 0.05)
            pred = [0] * n
            for v in range(n):
                for u in range(v):
                    if rng.random() < order_density:
                        pred[v] |= pred[u] | 1 << u

            def largest(v, chosen):
                if v == n:
                    return chosen
                out = largest(v + 1, chosen)
                if not pred[v] & ~chosen and not adj[v] & chosen:
                    out = max(out, largest(v + 1, chosen | 1 << v), key=int.bit_count)
                return out

            optimum = largest(0, 0)
            live, closed = suites._closure_graph_by_definition(
                [mask | 1 << v for v, mask in enumerate(pred)], adj
            )
            for seed in (0, optimum & ~(1 << optimum.bit_length() - 1)):
                best, _, finished = solver._bnb(closed, live, seed, float("inf"))
                assert finished
                assert best.bit_count() == optimum.bit_count()
                for low in bits(best):
                    v = low.bit_length() - 1
                    assert not adj[v] & best and not pred[v] & ~best

    def test_closure_graph_matches_its_definition(self):
        assert closure_graph_mismatches(closure_graph) == []

    @pytest.mark.parametrize("fault", ["drop an edge", "revive a dead vertex"])
    def test_closure_graph_check_catches_a_planted_fault(self, fault):
        def faulty(pairs, n, conflict_row):
            live, graph = closure_graph(pairs, n, conflict_row)
            if fault == "revive a dead vertex":
                dead = ~live & (1 << len(graph)) - 1
                return live | (dead & -dead), graph
            for u, mask in enumerate(graph):
                if mask:
                    v = (mask & -mask).bit_length() - 1
                    graph[u] ^= 1 << v
                    graph[v] ^= 1 << u
                    break
            return live, graph

        assert closure_graph_mismatches(faulty)


class TestAdjacency:
    def test_subfamily_graph(self):
        p = Profile(4, 2, 1)
        fam = VectorFamily(
            p,
            [
                SignedVector.parse("++-0"),
                SignedVector.parse("-0++"),
                SignedVector.parse("++0-"),
            ],
        )
        g = ConflictGraph(solver._adjacency(fam.masks, p, ForbiddenSpec.exact({-2})), fam)
        assert g.n_vertices == 3
        assert n_edges(g) == 2  # both outer vectors hit the middle one
