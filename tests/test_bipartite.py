"""Bipartite comparison graphs and the exact averaging bound."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from signedfam import Profile, bipartite
from signedfam.bipartite import (
    BipartiteGraph,
    IrregularityError,
    build_g_prime,
    build_g_tm,
    check_biregular,
    lemma3_check,
    random_biregular,
    random_independent_set,
)


class TestBuildGtm:
    def test_frozen_window_graphs(self):
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        assert (g.a_size, g.b_size) == (15, 6)
        assert check_biregular(g) == (2, 5)

        g = build_g_tm(Profile(9, 3, 2), 2, 0)
        assert (g.a_size, g.b_size) == (30, 30)
        assert check_biregular(g) == (6, 6)

    def test_skewed_cases(self):
        g = build_g_tm(Profile(9, 3, 1), 2, 1)
        assert (g.a_size, g.b_size) == (30, 3)
        assert check_biregular(g) == (1, 10)

        g = build_g_tm(Profile(10, 3, 2), 2, 1)
        assert (g.a_size, g.b_size) == (90, 18)
        assert check_biregular(g) == (2, 10)

    def test_degenerate_side_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_g_tm(Profile(6, 2, 1), 2, 2)

    def test_edges_carry_one_product(self):
        from signedfam import scalar_product

        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        for a, b in g.edges:
            assert scalar_product(g.a_family.members[a], g.b_family.members[b]) == -2

    def test_one_enumeration_serves_both_sides(self, monkeypatch):
        from signedfam import constructions, scalar_product

        p = Profile(10, 3, 2)
        calls = []
        enumerate_all = constructions.enumerate_all
        monkeypatch.setattr(
            constructions, "enumerate_all", lambda prof: calls.append(prof) or enumerate_all(prof)
        )
        g = build_g_tm(p, 2, 1)
        assert calls == [p]
        monkeypatch.undo()
        # both sides are the window classes, and the edges are every pair at -2l
        fam = enumerate_all(p)
        classes = [constructions.xy_class(pair, p, 2) for pair in fam.masks]
        x = [v for v, found in zip(fam.members, classes) if found == ("x", 1)]
        y = [v for v, found in zip(fam.members, classes) if found == ("y", 1)]
        assert (g.a_family.members, g.b_family.members) == (tuple(x), tuple(y))
        expected = [
            (a, b) for a, u in enumerate(x) for b, w in enumerate(y) if scalar_product(u, w) == -4
        ]
        assert sorted(g.edges) == expected


class TestProductEdges:
    """Edges read from the mask pairs equal the pairwise scalar_product reference."""

    @staticmethod
    def assert_pairwise(g, product):
        from signedfam import scalar_product

        expected = {
            (a, b)
            for a, u in enumerate(g.a_family.members)
            for b, w in enumerate(g.b_family.members)
            if scalar_product(u, w) == product
        }
        assert g.edges == expected

    def test_every_lemma3_comparison_graph(self, monkeypatch):
        from signedfam import suites

        built = []

        def recording(profile, t, m):
            g = build_g_tm(profile, t, m)
            built.append((profile, g))
            return g

        monkeypatch.setattr(bipartite, "build_g_tm", recording)
        suites._comparison_graph_failures(random.Random(0))
        assert built
        for profile, g in built:
            self.assert_pairwise(g, -2 * profile.l)

    def test_suffix_marker_graphs(self):
        for j, jprime, k, l in [(2, 5, 3, 2), (2, 7, 4, 3)]:
            self.assert_pairwise(build_g_prime(j, jprime, k, l), -2 * l + 2 * j - 1)


class TestBuildGPrime:
    # expected ratio deg_A / deg_B is (k - j + 1) / (l - j + 1)
    CASES = [
        # (k, l, j, jprime) -> (|A|, |B|, deg_A, deg_B)
        ((3, 2, 2, 5), (6, 12, 4, 2)),
        ((4, 2, 2, 7), (20, 60, 9, 3)),
        ((4, 3, 2, 7), (60, 90, 6, 4)),
        ((5, 3, 2, 9), (280, 560, 18, 9)),
    ]

    def test_frozen_graphs(self):
        for (k, l, j, jp), (a, b, da, db) in self.CASES:
            g = build_g_prime(j, jp, k, l)
            assert (g.a_size, g.b_size) == (a, b)
            assert check_biregular(g) == (da, db)

    def test_degree_ratio_identity(self):
        for (k, l, j, jp), (_, _, da, db) in self.CASES:
            assert Fraction(da, db) == Fraction(k - j + 1, l - j + 1)

    def test_j_range(self):
        with pytest.raises(ValueError, match="2 <= j <= l"):
            build_g_prime(1, 5, 3, 2)
        with pytest.raises(ValueError, match="2 <= j <= l"):
            build_g_prime(3, 5, 3, 2)

    def test_width_condition(self):
        with pytest.raises(ValueError, match="width"):
            build_g_prime(2, 4, 3, 2)  # jprime-1 = 3 < 2(k-j+1) = 4


class TestCheckBiregular:
    def test_detects_planted_irregularity(self):
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        edges = set(g.edges)
        removed = next(iter(edges))
        edges.remove(removed)
        broken = BipartiteGraph(g.a_size, g.b_size, frozenset(edges))
        with pytest.raises(IrregularityError) as exc:
            check_biregular(broken)
        assert abs(exc.value.degree - exc.value.expected) == 1

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_biregular(BipartiteGraph(0, 3, frozenset()))


class TestLemma3Check:
    def test_whole_side_a_is_tight(self):
        # I = A with empty B half turns the bound into equality
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        alpha = Fraction(g.b_size, g.a_size)
        assert lemma3_check(g, set(range(g.a_size)), set(), alpha)

    def test_whole_side_b_holds(self):
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        assert lemma3_check(g, set(), set(range(g.b_size)), Fraction(g.b_size, g.a_size))

    def test_random_independent_sets_obey_bound(self):
        g = build_g_tm(Profile(9, 3, 2), 2, 0)
        alpha = Fraction(g.b_size, g.a_size)
        for seed in range(40):
            i_a, i_b = random_independent_set(g, seed)
            assert lemma3_check(g, i_a, i_b, alpha)

    def test_rejects_non_independent_input(self):
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        a, b = next(iter(g.edges))
        with pytest.raises(ValueError, match="independent"):
            lemma3_check(g, {a}, {b}, Fraction(1))

    def test_rejects_small_alpha(self):
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        with pytest.raises(ValueError, match="alpha"):
            lemma3_check(g, set(), set(), Fraction(1, 100))

    def test_rejects_out_of_range_indices(self):
        g = build_g_tm(Profile(8, 2, 1), 1, 0)
        with pytest.raises(ValueError, match="out of range"):
            lemma3_check(g, {99}, set(), Fraction(1))


class TestRandomBiregular:
    def test_sparse_draw(self):
        g = random_biregular(10, 15, 3, 2, seed=4)
        assert check_biregular(g) == (3, 2)
        assert len(g.edges) == 30

    def test_stuck_walk_is_finished_by_an_exchange(self, monkeypatch):
        # A stubs 0,0,1,1,2,2 meet B stubs 0,2,0,2,1,1: A_2's second stub
        # repeats (2, 1) with no stub left, so an edge is exchanged
        drawn = []

        class FixedRandom(random.Random):
            def shuffle(self, x):
                x[:] = [0, 2, 0, 2, 1, 1]

            def choice(self, seq):
                drawn.append(seq)
                return seq[-1]

        monkeypatch.setattr(bipartite, "random", SimpleNamespace(Random=FixedRandom))
        g = random_biregular(3, 3, 2, 2, seed=0)
        # every placed edge (a2, b2) has b2 off A_2 and a2 off B_1
        assert drawn == [[(0, 0), (0, 2), (1, 0), (1, 2)]]
        # (1, 2) and (2, 1) became (1, 1) and (2, 2)
        assert g.edges == {(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)}
        assert check_biregular(g) == (2, 2)

    def test_seeded_draws_are_simple_and_biregular(self):
        from signedfam.suites import _random_biregular_params

        rng = random.Random(5)
        for seed in range(2000):
            a, b, da, db = _random_biregular_params(rng)
            g = random_biregular(a, b, da, db, seed=seed)
            # edges is a set, so a multi-edge would leave a vertex short
            assert check_biregular(g) == (da, db), (a, b, da, db, seed)

    def test_dense_sets_draw_few_shuffles(self, monkeypatch):
        # a clash is repaired by a swap and a stuck walk by an exchange,
        # so even these dense sets take one shuffle per draw
        shuffles = []

        class CountingRandom(random.Random):
            def shuffle(self, x):
                shuffles.append(len(x))
                super().shuffle(x)

        monkeypatch.setattr(bipartite, "random", SimpleNamespace(Random=CountingRandom))
        for case in [(9, 6, 4, 6), (11, 11, 4, 4), (12, 8, 4, 6)]:
            for seed in range(100):
                shuffles.clear()
                g = random_biregular(*case, seed=seed)
                assert check_biregular(g) == case[2:]
                assert shuffles == [case[0] * case[2]], (case, seed)

    def test_complete_case_draws_nothing(self, monkeypatch):
        # deg_a == b_size leaves K_{a,b} as the only simple biregular graph
        shuffles = []

        class CountingRandom(random.Random):
            def shuffle(self, x):
                shuffles.append(len(x))
                super().shuffle(x)

        monkeypatch.setattr(bipartite, "random", SimpleNamespace(Random=CountingRandom))
        for a in range(1, 7):
            for b in range(1, 7):
                g = random_biregular(a, b, b, a, seed=a * 7 + b)
                assert g.edges == {(i, j) for i in range(a) for j in range(b)}
        assert shuffles == []
        # a sparse case still draws
        random_biregular(10, 15, 3, 2, seed=4)
        assert shuffles

    def test_deterministic_in_seed(self):
        g1 = random_biregular(8, 12, 3, 2, seed=9)
        g2 = random_biregular(8, 12, 3, 2, seed=9)
        assert g1.edges == g2.edges
        g3 = random_biregular(8, 12, 3, 2, seed=10)
        assert g3.edges != g1.edges

    def test_handshake_required(self):
        with pytest.raises(ValueError, match="handshake"):
            random_biregular(5, 5, 2, 3, seed=0)

    def test_impossible_degree(self):
        with pytest.raises(ValueError, match="opposite side"):
            random_biregular(2, 3, 6, 4, seed=0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            random_biregular(0, 5, 1, 1, seed=0)


class TestRandomIndependentSet:
    def test_independent_and_maximal(self):
        g = random_biregular(12, 18, 3, 2, seed=21)
        nbrs_a = {a: set() for a in range(g.a_size)}
        nbrs_b = {b: set() for b in range(g.b_size)}
        for a, b in g.edges:
            nbrs_a[a].add(b)
            nbrs_b[b].add(a)
        for seed in range(10):
            i_a, i_b = random_independent_set(g, seed)
            for a in i_a:
                assert not nbrs_a[a] & i_b
            # maximal: every outside vertex sees the set
            for a in set(range(g.a_size)) - i_a:
                assert nbrs_a[a] & i_b, f"A vertex {a} could be added"
            for b in set(range(g.b_size)) - i_b:
                assert nbrs_b[b] & i_a, f"B vertex {b} could be added"
