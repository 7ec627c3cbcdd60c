"""Verification suites, the result cache, and the command-line surface."""

import json
import os
import re
from dataclasses import replace

import pytest

from signedfam import (
    Profile,
    SignedVector,
    VectorFamily,
    bipartite,
    constructions,
    formulas,
    shifting,
    solver,
    suites,
)
from signedfam import cache as cache_module
from signedfam.cache import ResultCache, cache_key, cache_keys
from signedfam.cli import build_parser, main
from signedfam.suites import (
    VerificationReport,
    render,
    run_suite,
    suite_names,
    suite_parameters,
)


class TestCacheKey:
    def test_format(self):
        assert cache_key(6, 3, 2, "g", True) == "6,3,2,g,pruned"
        assert cache_key(5, 2, 1, "m", False) == "5,2,1,m,unpruned"

    def test_pruned_m_also_reads_unpruned(self):
        assert cache_keys(5, 2, 1, "m", True) == ("5,2,1,m,pruned", "5,2,1,m,unpruned")
        assert cache_keys(5, 2, 1, "m", False) == ("5,2,1,m,unpruned",)
        assert cache_keys(5, 2, 1, "g", True) == ("5,2,1,g,pruned",)
        assert cache_keys(5, 2, 1, "g", False) == ("5,2,1,g,unpruned",)


class TestResultCache:
    def test_in_memory(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(str(path))
        assert cache.get("x") is None
        assert cache.put("x", 10, "exact")
        assert cache.get("x")["value"] == 10
        assert not path.exists()  # nothing is written before save

    def test_exact_is_final(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache.json"))
        cache.put("x", 10, "exact")
        assert not cache.put("x", 99, "lower_bound_timeout")
        assert not cache.put("x", 99, "exact")
        assert cache.get("x")["value"] == 10

    def test_lower_bound_upgrades(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache.json"))
        cache.put("x", 5, "lower_bound_timeout")
        assert not cache.put("x", 4, "lower_bound_timeout")
        assert cache.put("x", 7, "lower_bound_timeout")
        assert cache.put("x", 6, "exact")  # exact wins even when smaller
        assert cache.get("x")["status"] == "exact"

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(path)
        cache.put("6,3,2,g,pruned", 30, "exact")
        cache.save()
        again = ResultCache(path)
        assert again.get("6,3,2,g,pruned")["value"] == 30

    def test_corrupt_file_rebuilds_with_warning(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt"):
            cache = ResultCache(str(path))
        assert cache.entries == {}
        # malformed entries are also treated as corruption
        path.write_text('{"k": {"value": "not-int", "status": "exact"}}')
        with pytest.warns(UserWarning, match="corrupt"):
            assert ResultCache(str(path)).entries == {}

    @pytest.mark.parametrize("value", ["true", "-1"])
    def test_value_not_a_count_is_corrupt(self, tmp_path, value):
        path = tmp_path / "cache.json"
        text = f'{{"5,2,1,g,pruned": {{"value": {value}, "status": "exact"}}}}'
        path.write_text(text)
        with pytest.warns(UserWarning, match="malformed entry"):
            assert ResultCache(str(path)).entries == {}
        assert (tmp_path / "cache.json.corrupt").read_text() == text

    def test_unknown_status_is_corrupt(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"5,2,1,g,pruned": {"value": 12, "status": "guessed"}}')
        with pytest.warns(UserWarning, match="malformed entry"):
            assert ResultCache(str(path)).entries == {}
        assert (tmp_path / "cache.json.corrupt").exists()

    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = ResultCache(str(path))
        cache.put("6,3,2,g,pruned", 30, "exact")
        cache.save()
        before = path.read_text()
        written = []

        class DiskFull:
            """A file that writes the first half of its one write and then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                written.append((text, os.path.getsize(self.fh.name)))
                raise OSError("disk full")

        def disk_full_open(*args, **kwargs):
            return DiskFull(open(*args, **kwargs))

        cache.put("7,3,2,g,pruned", 90, "exact")
        monkeypatch.setattr(cache_module, "open", disk_full_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            cache.save()
        monkeypatch.undo()
        # the new entries reached the temporary file in part, never the cache file
        [(text, size)] = written
        assert json.loads(text)["7,3,2,g,pruned"]["value"] == 90
        assert 0 < size < len(text)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        assert ResultCache(str(path)).get("6,3,2,g,pruned")["value"] == 30

    def test_save_writes_compact_sorted_json(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(str(path))
        cache.put("7,3,2,g,pruned", 90, "exact")
        cache.put("6,3,2,g,pruned", 30, "lower_bound_timeout")
        cache.save()
        assert path.read_text() == json.dumps(cache.entries, sort_keys=True) + "\n"
        assert ResultCache(str(path)).entries == cache.entries

    def test_indented_file_still_loads(self, tmp_path):
        # a file saved with indent=2, as earlier versions saved the cache
        path = tmp_path / "cache.json"
        entries = {
            "6,3,2,g,pruned": {"status": "exact", "timestamp": "2026-01-01T00:00:00", "value": 30},
            "7,3,1,m,unpruned": {"status": "lower_bound_timeout", "value": 28},
        }
        path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
        cache = ResultCache(str(path))
        assert cache.entries == entries
        assert cache.get("6,3,2,g,pruned")["value"] == 30
        assert not (tmp_path / "cache.json.corrupt").exists()

    def test_corrupt_file_kept_aside(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"6,3,2,g,pruned": {"value": 30, "sta')
        with pytest.warns(UserWarning, match="cache.json.corrupt"):
            cache = ResultCache(str(path))
        cache.put("5,2,1,g,pruned", 12, "exact")
        cache.save()
        aside = tmp_path / "cache.json.corrupt"
        assert aside.read_text() == '{"6,3,2,g,pruned": {"value": 30, "sta'
        assert ResultCache(str(path)).get("5,2,1,g,pruned")["value"] == 12

    def test_unreadable_path_is_not_corrupt(self, tmp_path, capsys):
        # a directory cannot be opened as a file: the error propagates,
        # and nothing is moved aside or written
        path = tmp_path / "cache"
        path.mkdir()
        (path / "kept.json").write_text("{}")
        with pytest.raises(IsADirectoryError):
            ResultCache(str(path))
        assert main(["solve", "--n", "4", "--k", "2", "--l", "1", "--cache", str(path)]) == 3
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]
        assert [p.name for p in path.iterdir()] == ["kept.json"]


class TestRunSuite:
    def test_solver_oracle_rederives_the_g_setup(self, monkeypatch):
        def setup_case(report):
            (case,) = [c for c in report.cases if c.case.startswith("setup-pairwise[")]
            return case

        assert setup_case(run_suite("solver-oracle")).passed
        # a cover table that drops one entry fails the downward closure; up-sets
        # that drop one push fail the upward one, which the closure graphs alone
        # do not show
        covered = shifting._cover_table

        def drop_an_entry(pairs, n):
            table = covered(pairs, n)
            r = next(r for r, covers in enumerate(table) if covers)
            table[r] = table[r][:-1]
            return table

        def drop_a_push(table):
            skipped = next(r for r, covers in enumerate(table) if covers)
            up = [1 << r for r in range(len(table))]
            for r in reversed(range(len(table))):
                for s in table[r]:
                    if (r, s) != (skipped, table[skipped][-1]):
                        up[s] |= up[r]
            return up

        for name, fault, faulty_pass in (
            ("_cover_table", drop_an_entry, "downward"),
            ("_up_sets", drop_a_push, "upward"),
        ):
            monkeypatch.setattr(shifting, name, fault)
            case = setup_case(run_suite("solver-oracle"))
            assert case.actual == f"22 mismatches; first profile (3,2,1): {faulty_pass} closure"
            monkeypatch.undo()
        # a closure graph that loses one edge
        lifted = shifting.closure_graph

        def drop_an_edge(pairs, n, conflict_row):
            live, graph = lifted(pairs, n, conflict_row)
            for u in range(len(graph)):
                if graph[u]:
                    v = (graph[u] & -graph[u]).bit_length() - 1
                    graph[u] ^= 1 << v
                    graph[v] ^= 1 << u
                    break
            return live, graph

        monkeypatch.setattr(shifting, "closure_graph", drop_an_edge)
        case = setup_case(run_suite("solver-oracle"))
        assert not case.passed and "g closure graph" in case.actual
        monkeypatch.undo()
        # a builder that loses the edges of the g graph
        built = solver.build_conflict_graph

        def no_g_edges(profile, spec):
            graph = built(profile, spec)
            if spec == solver.ForbiddenSpec.exact({-2 * profile.l}):
                return solver.ConflictGraph([0] * graph.n_vertices, graph.family)
            return graph

        monkeypatch.setattr(solver, "build_conflict_graph", no_g_edges)
        case = setup_case(run_suite("solver-oracle"))
        assert not case.passed and "g conflict graph" in case.actual

    def test_solver_oracle_catches_a_kernel_without_a_term(self, monkeypatch):
        # a products kernel that drops the (neg & neg) term, where the suite reads it
        def no_neg_overlap(pair, pairs):
            pa, na = pair
            return [
                (pa & pb).bit_count() - (pa & nb).bit_count() - (na & pb).bit_count()
                for pb, nb in pairs
            ]

        monkeypatch.setattr(suites, "products", no_neg_overlap)
        (case,) = [c for c in run_suite("solver-oracle").cases if c.case == "setup-pairwise[22]"]
        assert not case.passed
        assert case.actual == "2 mismatches; first profile (6,3,2): m conflict graph"

    def test_names_sorted_and_complete(self):
        names = suite_names()
        assert names == sorted(names)
        assert set(names) == {
            "theorem1",
            "eq111",
            "bounds",
            "lemma1",
            "lemma3",
            "ratios",
            "precedes",
            "constructions",
            "solver-oracle",
            "p-increment",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown suite parameters"):
            run_suite("lemma3", trials=5, bogus=1)

    def test_shared_parameters_reach_their_suites(self):
        # every suite's full parameter set: the CLI sets seed, budget,
        # trials, n, k and l, and the benchmark max_n and max_dim; a size
        # only a test sets has no place here
        assert {name: suite_parameters(name) for name in suite_names()} == {
            "theorem1": {"budget"},
            "eq111": {"budget"},
            "bounds": {"budget"},
            "lemma1": {"n", "k", "l"},
            "lemma3": {"trials", "seed"},
            "ratios": {"max_dim"},
            "precedes": {"seed"},
            "constructions": {"max_n"},
            "solver-oracle": {"seed"},
            "p-increment": set(),
        }

    def test_lemma1_partial_profile_rejected(self):
        with pytest.raises(ValueError, match="lemma1"):
            run_suite("lemma1", n=5)

    def test_lemma3_small(self):
        report = run_suite("lemma3", trials=25, seed=3)
        assert report.ok
        assert report.suite == "lemma3"

    def test_lemma3_catches_a_comparison_graph_that_drops_an_edge(self, monkeypatch):
        cases = run_suite("lemma3", trials=3).cases
        assert [(c.case, c.actual) for c in cases] == [
            ("averaging-bound[3 trials]", "0 violations"),
            ("comparison-graphs[29 G(t,m)]", "0 failures"),
        ]
        product_edges = bipartite._product_edges

        def drop_an_edge(a_fam, b_fam, product):
            edges = product_edges(a_fam, b_fam, product)
            return edges - {min(edges)} if edges else edges

        monkeypatch.setattr(bipartite, "_product_edges", drop_an_edge)
        case = run_suite("lemma3", trials=3).cases[1]
        assert not case.passed
        assert case.actual.startswith("29 failures; first graph (n,k,l,t,m) = (4,2,1,1,0): vertex")

    def test_precedes_small(self):
        report = run_suite("precedes", seed=1)
        assert report.ok

    def test_ratios_small(self):
        report = run_suite("ratios", max_dim=7)
        assert report.ok
        assert all(c.provenance in ("closed-form", "oracle") for c in report.cases)

    def test_failure_tally_names_count_and_first_failure(self, monkeypatch):
        sizes = formulas.xy_family_sizes

        def bumped(n, k, l, t, m):
            real = sizes(n, k, l, t, m)
            return real._replace(x_size=real.x_size + 1) if t == 2 else real

        monkeypatch.setattr(formulas, "xy_family_sizes", bumped)
        report = run_suite("ratios", max_dim=7)
        assert not report.ok
        (case,) = [c for c in report.cases if c.case == "xy-sizes(dim=7,k=3,l=2)"]
        assert case.expected == "0 mismatches among 12"
        assert case.actual == "4 mismatches among 12; first t=2, m=0: formula (4,9), enumerated (3,9)"
        assert not case.passed and case.provenance == "closed-form"

    def test_precedes_catches_a_wrong_answer_and_a_dropped_image(self, monkeypatch):
        run = lambda: run_suite("precedes", seed=1)
        wrong = SignedVector.parse("+-")
        precedes = shifting.precedes
        monkeypatch.setattr(
            shifting, "precedes", lambda v, w: precedes(v, w) != (v == w == wrong)
        )
        report = run()
        assert not report.ok
        assert report.cases[0].actual == "1 mismatches among 3458; first v=+-, w=+-"
        monkeypatch.undo()

        # "+-" is the only image of "-+", so dropping it empties the down-set below "-+"
        shift_ij = shifting.shift_ij
        lost = SignedVector.parse("-+")
        monkeypatch.setattr(
            shifting, "shift_ij", lambda v, i, j: v if v == lost else shift_ij(v, i, j)
        )
        report = run()
        assert not report.ok
        assert report.cases[0].actual == "1 mismatches among 3458; first v=+-, w=-+"
        monkeypatch.undo()
        assert run().ok

    def test_ratios_catches_a_bad_enumeration(self, monkeypatch):
        xy_class = constructions.xy_class

        def drops_y_at_2(pair, profile, t):
            found = xy_class(pair, profile, t)
            return None if t == 2 and found is not None and found[0] == "y" else found

        monkeypatch.setattr(constructions, "xy_class", drops_y_at_2)
        report = run_suite("ratios", max_dim=7)
        assert not report.ok
        failed = [c for c in report.cases if not c.passed]
        # every class with a window count 2 loses its y side there; k = 2 has none
        assert len(failed) == 9
        assert all(c.actual.startswith("2 mismatches") for c in failed)
        assert all(", enumerated (" in c.actual and c.actual.endswith(",0)") for c in failed)
        (case,) = [c for c in report.cases if c.case == "xy-sizes(dim=7,k=3,l=2)"]
        assert case.actual == "2 mismatches among 12; first t=2, m=0: formula (3,9), enumerated (3,0)"

    def test_size_sweep_names_first_mismatch(self, monkeypatch):
        ekr_value = formulas.g_ekr_value

        def bumped(n, k, l):
            real = ekr_value(n, k, l)
            return real._replace(value=real.value + 1) if (n, k, l) == (6, 2, 1) else real

        monkeypatch.setattr(formulas, "g_ekr_value", bumped)
        report = run_suite("constructions", max_n=8)
        assert not report.ok
        (case,) = [c for c in report.cases if not c.passed]
        assert case.case == "ekr-sizes(k=2,l=1,n<=8)"
        assert case.expected == "sizes match at 3 dimensions"
        assert case.actual == "n=6: 20 != 21"
        assert case.provenance == "closed-form"
        (case,) = [c for c in report.cases if c.case == "ekr-sizes(k=3,l=1,n<=8)"]
        assert (case.expected, case.actual) == ("sizes match at 3 dimensions", "all match")

    def test_p_increment_has_informational_cases(self):
        report = run_suite("p-increment")
        assert report.ok
        _, _, info = report.counts
        assert info >= 1
        # the claimed recursion does not hold; the report carries that fact
        assert any("equality false" in c.actual for c in report.cases if not c.required)

    def test_lemma1_single_profile(self):
        report = run_suite("lemma1", n=5, k=2, l=1)
        assert report.ok
        assert any("(5,2,1)" in c.case for c in report.cases)

    def test_lemma1_refuses_a_profile_outside_its_scope(self, capsys):
        # with k < l no vector meets condition (i), so the suite would check nothing
        with pytest.raises(ValueError, match=r"k >= l, got profile \(4,1,2\)"):
            run_suite("lemma1", n=4, k=1, l=2)
        assert main(["verify", "lemma1", "--n", "4", "--k", "1", "--l", "2"]) == 3
        assert "profile (4,1,2)" in capsys.readouterr().err
        assert run_suite("lemma1", n=4, k=1, l=1).ok

    def test_theorem1_custom_instance(self):
        report = run_suite("theorem1", budget=60.0)
        assert report.ok
        assert (report.cases[0].case, report.cases[0].expected) == ("g(4,2,1)", "6")

    def test_timed_out_solve_reads_as_lower_bound(self):
        # at budget 0 each solve stops before the shift closure, with its seed;
        # on these six the seed is already the fixed-first-coordinate count
        values = {
            "g(6,3,2)": "30", "g(7,3,2)": "90", "g(9,4,2)": "560",
            "g(10,4,2)": "1260", "g(10,5,2)": "1260", "g(11,4,1)": "840",
        }
        timed_out = run_suite("eq111", budget=0).cases
        assert [(c.case, c.actual, c.passed) for c in timed_out] == [
            (case, f"{value} (lower bound)", False) for case, value in values.items()
        ]
        solved = run_suite("eq111").cases
        assert [(c.case, c.expected, c.actual, c.passed) for c in solved] == [
            (case, value, value, True) for case, value in values.items()
        ]

    @pytest.mark.parametrize("name", ["theorem1", "eq111", "bounds"])
    def test_value_suite_rows_check_their_own_reference(self, name, monkeypatch):
        # (lower, upper) of each row from its own (n, k, l)
        reference = {
            "theorem1": lambda n, k, l: (formulas.g_closed_l1(n, k),) * 2,
            "eq111": lambda n, k, l: (formulas.g_ekr_value(n, k, l).value,) * 2,
            "bounds": formulas.g_bounds,
        }[name]
        # every eq111 row lies in the proven window; take g(11,4,1) out of it
        ekr = formulas.g_ekr_value
        monkeypatch.setattr(
            formulas, "g_ekr_value", lambda n, k, l: ekr(n, k, l)._replace(in_range=n != 11)
        )

        def planted(above):
            def solve(profile, target, budget):
                _, upper = reference(profile.n, profile.k, profile.l)
                return solver.SolveResult(upper + above, solver.STATUS_EXACT, 0, 0.0, ())

            return solve

        monkeypatch.setattr(solver, "solve_extremal", planted(0))
        at_upper = run_suite(name)
        monkeypatch.setattr(solver, "solve_extremal", planted(1))
        above = run_suite(name)
        assert at_upper.ok and all(c.passed for c in at_upper.cases)
        assert not above.ok and not any(c.passed for c in above.cases)
        for case in above.cases:
            n, k, l = map(int, re.fullmatch(r"\w+\((\d+),(\d+),(\d+)\)", case.case).groups())
            lower, upper = reference(n, k, l)
            assert case.expected == (
                f"{lower} <= value <= {upper}" if name == "bounds" else str(upper)
            )
            assert case.actual == str(upper + 1)
            assert case.required == (name != "eq111" or n != 11)

    @pytest.mark.parametrize(
        "route, options", [("pruned solve", {}), ("unpruned solve", {"shifted_pruning": False})]
    )
    def test_solver_oracle_checks_both_solve_routes(self, route, options, monkeypatch):
        solve = solver.solve_extremal

        def one_too_many(profile, target, **given):
            result = solve(profile, target, **given)
            if (profile, target, given) == (Profile(4, 2, 1), "g", options):
                return replace(result, value=result.value + 1)
            return result

        monkeypatch.setattr(solver, "solve_extremal", one_too_many)
        report = run_suite("solver-oracle")
        assert [(c.case, c.passed) for c in report.cases if not c.passed] == [
            ("profile-graphs[56]", False)
        ]
        (case,) = [c for c in report.cases if c.case == "profile-graphs[56]"]
        assert case.actual == f"1 mismatches; first profile (4,2,1), exact:-2, {route}: 7 vs 6"


class TestReportShapes:
    def make(self):
        report = VerificationReport("demo")
        report.add("a", 1, 1, True, "oracle")
        report.add("b", True, False, False, "closed-form", required=False)
        return report

    def test_ok_ignores_informational(self):
        assert self.make().ok

    def test_counts(self):
        assert self.make().counts == (1, 0, 1)

    def test_json_shape(self):
        d = self.make().to_json_dict()
        assert d["suite"] == "demo"
        assert d["ok"] is True
        assert d["informational"] == 1
        assert d["cases"][0] == {
            "case": "a",
            "expected": "1",
            "actual": "1",
            "pass": True,
            "provenance": "oracle",
            "required": True,
        }
        # booleans are serialized lowercase in the string fields
        assert d["cases"][1]["expected"] == "true"

    def test_csv_shape(self):
        text = render([self.make()], "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "suite,case,expected,actual,pass,provenance"
        assert lines[1] == "demo,a,1,1,true,oracle"
        assert len(lines) == 3

    def test_failed_required_case_fails_report(self):
        report = VerificationReport("demo")
        report.add("bad", 1, 2, False, "oracle")
        assert not report.ok
        assert report.counts == (0, 1, 0)


class TestCliSolve:
    def test_solve_json(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(
            [
                "solve",
                "--n",
                "4",
                "--k",
                "2",
                "--l",
                "1",
                "--target",
                "g",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 6
        assert payload["status"] == "exact"

    def test_solve_uses_cache_on_second_run(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        out = tmp_path / "out.json"
        args = [
            "solve",
            "--n",
            "4",
            "--k",
            "2",
            "--l",
            "1",
            "--target",
            "g",
            "--cache",
            cache,
            "--format",
            "json",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        assert json.loads(out.read_text())["cached"] is False
        assert main(args) == 0
        assert json.loads(out.read_text())["cached"] is True

    def _solve_cached(self, tmp_path, entries, *flags):
        """Solve (4,2,1) through a new cache holding entries; (payload, cache after)."""
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({key: {"value": v, "status": st} for key, v, st in entries}))
        out = tmp_path / "out.json"
        argv = ["solve", "--n", "4", "--k", "2", "--l", "1", *flags]
        assert main(argv + ["--cache", str(path), "--format", "json", "--out", str(out)]) == 0
        return json.loads(out.read_text()), ResultCache(str(path)).entries

    def test_pruned_m_is_served_by_an_unpruned_entry(self, tmp_path):
        payload, entries = self._solve_cached(
            tmp_path, [("4,2,1,m,unpruned", 4, "exact")], "--target", "m"
        )
        assert (payload["value"], payload["cached"]) == (4, True)
        assert set(entries) == {"4,2,1,m,unpruned"}
        # a lower bound there is not an answer: the pruned solve runs and is stored
        payload, entries = self._solve_cached(
            tmp_path, [("4,2,1,m,unpruned", 3, "lower_bound_timeout")], "--target", "m"
        )
        assert (payload["value"], payload["cached"]) == (4, False)
        assert entries["4,2,1,m,pruned"]["value"] == 4

    def test_unpruned_m_never_reads_a_pruned_entry(self, tmp_path, monkeypatch):
        reads = []
        get = ResultCache.get
        monkeypatch.setattr(ResultCache, "get", lambda self, key: reads.append(key) or get(self, key))
        payload, entries = self._solve_cached(
            tmp_path, [("4,2,1,m,pruned", 99, "exact")], "--target", "m", "--no-shift-pruning"
        )
        assert (payload["value"], payload["cached"]) == (4, False)
        assert reads == ["4,2,1,m,unpruned"]
        assert entries["4,2,1,m,unpruned"]["value"] == 4
        assert entries["4,2,1,m,pruned"]["value"] == 99

    def test_g_reads_only_its_own_mode(self, tmp_path):
        for stored, flags in (("g,unpruned", ()), ("g,pruned", ("--no-shift-pruning",))):
            payload, _ = self._solve_cached(
                tmp_path, [(f"4,2,1,{stored}", 99, "exact")], "--target", "g", *flags
            )
            assert (payload["value"], payload["cached"]) == (6, False)

    def test_an_unchanged_entry_is_not_saved_again(self, tmp_path, monkeypatch):
        saves = []
        monkeypatch.setattr(ResultCache, "save", lambda self: saves.append(self.path))
        # a --witness-out re-solve of a cached exact key solves, but stores nothing new
        witness = tmp_path / "witness.txt"
        payload, entries = self._solve_cached(
            tmp_path, [("4,2,1,g,pruned", 6, "exact")], "--witness-out", str(witness)
        )
        assert (payload["value"], payload["cached"]) == (6, False) and witness.exists()
        assert saves == []
        # a timeout no larger than the stored lower bound leaves the entry as it was
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"4,2,1,g,pruned": {"value": 6, "status": "lower_bound_timeout"}}))
        argv = ["solve", "--n", "4", "--k", "2", "--l", "1", "--budget", "0", "--cache", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 2
        assert saves == []
        assert ResultCache(str(path)).entries["4,2,1,g,pruned"]["value"] == 6

    def test_budget_exhaustion_exit_code(self, tmp_path):
        out = tmp_path / "out.json"
        witness = tmp_path / "witness.txt"
        code = main(
            [
                "solve",
                "--n",
                "7",
                "--k",
                "3",
                "--l",
                "2",
                "--target",
                "g",
                "--no-shift-pruning",
                "--budget",
                "0.02",
                "--format",
                "json",
                "--out",
                str(out),
                "--witness-out",
                str(witness),
            ]
        )
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["status"] == "lower_bound_timeout"
        # a timed-out solve writes its lower-bound family, which still verifies
        fam = VectorFamily.load(str(witness))
        assert len(fam) == payload["value"]
        assert solver.verify_family(fam, solver.target_spec(fam.profile, "g")).ok

    def test_witness_roundtrip(self, tmp_path):
        witness = tmp_path / "witness.txt"
        code = main(
            [
                "solve",
                "--n",
                "4",
                "--k",
                "2",
                "--l",
                "1",
                "--target",
                "g",
                "--witness-out",
                str(witness),
                "--out",
                str(tmp_path / "ignored.txt"),
            ]
        )
        assert code == 0
        fam = VectorFamily.load(str(witness))
        assert len(fam) == 6
        assert fam.profile == Profile(4, 2, 1)

    @pytest.mark.parametrize("flag", ["--cache", "--witness-out", "--out"])
    def test_missing_output_directory_refused_before_solving(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(solver, "solve_extremal", lambda *a, **kw: calls.append(a))
        path = str(tmp_path / "nodir" / "file.txt")
        assert main(["solve", "--n", "10", "--k", "3", "--l", "2", flag, path]) == 3
        assert calls == []
        assert path in capsys.readouterr().err


class TestCliOther:
    def test_enumerate_roundtrip(self, tmp_path):
        out = tmp_path / "class.txt"
        assert main(["enumerate", "--n", "4", "--k", "2", "--l", "1", "--out", str(out)]) == 0
        fam = VectorFamily.load(str(out))
        assert len(fam) == 12

    def test_construct_ekr(self, tmp_path):
        out = tmp_path / "fam.txt"
        code = main(
            ["construct", "ekr", "--n", "5", "--k", "2", "--l", "1", "--out", str(out)]
        )
        assert code == 0
        assert len(VectorFamily.load(str(out))) == 12

    def test_construct_extend_checks_profile(self, tmp_path):
        base = tmp_path / "base.txt"
        main(["construct", "ekr", "--n", "4", "--k", "2", "--l", "1", "--out", str(base)])
        code = main(
            [
                "construct",
                "extend",
                "--n",
                "5",
                "--k",
                "2",
                "--l",
                "1",
                "--base",
                str(base),
                "--out",
                str(tmp_path / "x.txt"),
            ]
        )
        assert code == 3  # base family profile must match --n/--k/--l

    def test_construct_extend_rejects_violating_base(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("4 2 1\n++-0\n-0++\n")
        out = tmp_path / "x.txt"
        code = main(["construct", "extend", *NKL, "--base", str(base), "--out", str(out)])
        assert code == 3
        assert "minimum product on pair ++-0, -0++" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_base", [False, True])
    def test_construct_extend_refuses_non_g_profiles(self, tmp_path, capsys, with_base):
        # extend keeps g's floor, so it refuses k <= l as solve --target g does
        args = ["construct", "extend", "--n", "4", "--k", "1", "--l", "1"]
        if with_base:
            base = tmp_path / "base.txt"
            base.write_text("4 1 1\n+-00\n")
            args += ["--base", str(base)]
        out = tmp_path / "x.txt"
        assert main([*args, "--out", str(out)]) == 3
        assert "target g requires k > l >= 1, got k=1, l=1" in capsys.readouterr().err
        assert not out.exists()

    def test_construct_xy(self, tmp_path):
        out = tmp_path / "fam.txt"
        code = main(
            [
                "construct",
                "xy",
                "--n",
                "8",
                "--k",
                "2",
                "--l",
                "1",
                "--t",
                "1",
                "--m",
                "0",
                "--side",
                "y",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(VectorFamily.load(str(out))) == 6

    def test_classify_single_vector(self, capsys):
        assert main(["classify", "--vector", "++--+"]) == 0
        text = capsys.readouterr().out
        assert "B1" in text

    def test_formula_plain(self, capsys):
        assert main(["formula", "p-split", "--n", "10", "--k", "2", "--l", "1"]) == 0
        text = capsys.readouterr().out
        assert "value: 63" in text
        assert "argmax: 7" in text

    def test_formula_missing_arg(self, capsys):
        assert main(["formula", "p-split", "--n", "10", "--k", "2"]) == 3
        assert "--l" in capsys.readouterr().err

    def test_formula_family_size_refuses_a_negative_argument(self, capsys):
        assert main(["formula", "family-size", "--n", "-3", "--k", "1", "--l", "0"]) == 3
        assert capsys.readouterr().err == (
            "error: family size requires n, k, l >= 0, got n=-3, k=1, l=0\n"
        )

    def test_verify_list(self, capsys, tmp_path):
        assert main(["verify", "list"]) == 0
        assert "lemma3" in capsys.readouterr().out
        out = tmp_path / "names.txt"
        assert main(["verify", "list", "--out", str(out)]) == 0
        assert out.read_text().split() == suite_names()

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "3"], ["--budget", "1"], ["--trials", "2"], ["--n", "9"], ["--format", "json"]],
        ids=lambda flags: flags[0],
    )
    def test_verify_list_refuses_suite_flags(self, flags, capsys):
        assert main(["verify", "list", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"takes no suite flags, got {flags[0]}" in captured.err

    def test_verify_pass_and_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "verify",
                "lemma3",
                "--trials",
                "10",
                "--seed",
                "5",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "suite,case,expected,actual,pass,provenance"
        assert all(",true," in line for line in lines[1:])

    def test_verify_failure_exit_code(self, monkeypatch, tmp_path):
        failing = VerificationReport("lemma3")
        failing.add("planted", 1, 2, False, "oracle")
        monkeypatch.setattr(suites, "run_suite", lambda name, **kw: failing)
        code = main(["verify", "lemma3", "--out", str(tmp_path / "r.txt")])
        assert code == 1

    def test_report_two_suites_json(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "report",
                "--suites",
                "p-increment,precedes",
                "--seed",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert [r["suite"] for r in payload["reports"]] == ["p-increment", "precedes"]

    def test_report_csv_has_one_header_row(self, capsys):
        argv = ["report", "--suites", "lemma3,p-increment", "--trials", "3", "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = "suite,case,expected,actual,pass,provenance"
        assert lines[0] == header
        assert lines.count(header) == 1
        assert [line.split(",")[0] for line in lines[1:]] == ["lemma3"] * 2 + ["p-increment"] * 3

    @pytest.mark.parametrize("names", [",", "", " , "])
    def test_report_of_no_suite_is_refused(self, names, capsys):
        assert main(["report", "--suites", names]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "names no suite" in captured.err

    def test_report_forwards_only_accepted_parameters(self, monkeypatch, tmp_path):
        calls = {}

        def fake_run_suite(name, **kwargs):
            calls[name] = kwargs
            return VerificationReport(name)

        monkeypatch.setattr(suites, "run_suite", fake_run_suite)
        argv = ["report", "--suites", "lemma3,precedes,theorem1,ratios", "--seed", "3"]
        argv += ["--trials", "5", "--budget", "9", "--out", str(tmp_path / "r.txt")]
        assert main(argv) == 0
        assert calls == {
            "lemma3": {"seed": 3, "trials": 5},
            "precedes": {"seed": 3},
            "theorem1": {"budget": 9.0},
            "ratios": {},
        }

    def test_report_checks_every_name_before_running_any(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(suites, "run_suite", lambda name, **kwargs: calls.append(name))
        assert main(["report", "--suites", "lemma3,nope"]) == 3
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown suite 'nope'" in captured.err

    def test_report_refuses_a_repeated_suite_before_running_any(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(suites, "run_suite", lambda name, **kwargs: calls.append(name))
        assert main(["report", "--suites", "p-increment,lemma3, p-increment", "--format", "csv"]) == 3
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeats suite p-increment" in captured.err

    def test_invalid_arguments(self):
        assert main(["solve", "--k", "2", "--l", "1"]) == 3  # missing --n
        assert main(["nonsense"]) == 3

    def test_bad_vector_string(self, capsys):
        assert main(["classify", "--vector", "+x-"]) == 3
        assert "error" in capsys.readouterr().err


NKL = ["--n", "4", "--k", "2", "--l", "1"]

REFUSED = [
    # a shared flag on a command that does not read it
    ["enumerate", "--n", "3", "--k", "1", "--l", "1", "--seed", "1"],
    ["solve", *NKL, "--seed", "1"],
    ["verify", "lemma3", "--cache", "c.json"],
    ["report", "--cache", "c.json"],
    # an argument of another construct kind
    ["construct", "ekr", *NKL, "--t", "1"],
    ["construct", "split", *NKL, "--base", "f"],
    # a formula argument the name does not take
    ["formula", "n0", "--n", "9", "--k", "2", "--l", "1"],
    ["formula", "g-closed-l1", "--n", "6", "--k", "2", "--l", "1"],
    # classify reads exactly one of --vector and --family
    ["classify", "--vector", "++--+", "--family", "f.txt"],
    ["classify", "--format", "json"],
    # an output format the command does not write
    ["classify", "--vector", "++--+", "--format", "csv"],
    ["formula", "p-split", "--n", "10", "--k", "2", "--l", "1", "--format", "csv"],
]

# formula arguments, plain output, JSON payload
FORMULA_OUTPUT = [
    (["family-size", "--n", "6", "--k", "2", "--l", "1"], "value: 60\n", {"value": 60}),
    (["g-closed-l1", "--n", "12", "--k", "3"], "value: 537\n", {"value": 537}),
    (
        ["g-bounds", "--n", "7", "--k", "3", "--l", "2"],
        "lower: 84\nupper: 294\n",
        {"lower": 84, "upper": 294},
    ),
    (
        ["g-ekr", "--n", "7", "--k", "3", "--l", "2"],
        "value: 90\nin_range: True\n",
        {"value": 90, "in_range": True},
    ),
    (
        ["increment", "--n", "10", "--k", "5", "--l", "3"],
        "value: 2520\napplicable: False\nconjectured_threshold: 56/3\n",
        {"value": 2520, "applicable": False, "conjectured_threshold": "56/3"},
    ),
    (
        ["p-split", "--n", "10", "--k", "2", "--l", "1"],
        "value: 63\nargmax: 7\n",
        {"value": 63, "argmax": 7},
    ),
    (
        ["p-increment", "--n", "9", "--k", "3", "--l", "2"],
        "increment: 30\ncandidate_lower_l: 40\ncandidate_lower_k: 36\naverage: 38\n"
        "equality_holds: False\nge_average_holds: False\nle_min_holds: True\n",
        {
            "increment": 30,
            "candidate_lower_l": 40,
            "candidate_lower_k": 36,
            "average": "38",
            "equality_holds": False,
            "ge_average_holds": False,
            "le_min_holds": True,
        },
    ),
    (["n0", "--k", "2", "--l", "1"], "value: 96\n", {"value": 96}),
    (
        ["xy-sizes", "--n", "8", "--k", "3", "--l", "2", "--t", "2", "--m", "0"],
        "x_size: 30\ny_size: 30\n",
        {"x_size": 30, "y_size": 30},
    ),
    (
        ["ratio-alpha", "--n", "12", "--k", "3", "--l", "2", "--t", "2", "--m", "1"],
        "ratio: 1/8\nalpha: 1\ncoefficient: 67/24\n",
        {"ratio": "1/8", "alpha": "1", "coefficient": "67/24"},
    ),
]

CONSTRUCT_OUTPUT = [
    (["ekr", *NKL], "4 2 1\n++-0\n++0-\n+-+0\n+0+-\n+-0+\n+0-+\n"),
    (["split", *NKL], "4 2 1\n++0-\n+0+-\n0++-\n"),
    (
        ["split", "--n", "5", "--k", "2", "--l", "1", "--plus-prefix", "2"],
        "5 2 1\n++-00\n++0-0\n++00-\n",
    ),
    (
        ["extend", *NKL],
        "5 2 1\n++-00\n++0-0\n++00-\n+-+00\n+0+-0\n+0+0-\n0++0-\n+-0+0\n"
        "+0-+0\n+00+-\n0+0+-\n00++-\n",
    ),
    (
        ["xy", "--n", "5", "--k", "2", "--l", "1", "--t", "1", "--m", "0", "--side", "x"],
        "5 2 1\n0++0-\n0+0+-\n00++-\n",
    ),
]


# a count or budget out of range, on each command that takes it
OUT_OF_RANGE = [
    ["verify", "lemma3", "--trials", "-5"],
    ["verify", "lemma3", "--trials", "0"],
    ["report", "--suites", "lemma3", "--trials", "0"],
    ["solve", *NKL, "--budget", "nan"],
    ["solve", *NKL, "--budget", "-1"],
    ["verify", "theorem1", "--budget", "-1"],
    ["report", "--suites", "bounds", "--budget", "nan"],
    ["solve", *NKL, "--vertex-cap", "0"],
    ["solve", *NKL, "--vertex-cap", "-1"],
]


class TestCliFlags:
    @pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
    def test_out_of_range_value_is_refused(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be at least" in captured.err

    def test_range_bounds_are_inclusive(self, capsys):
        args = build_parser().parse_args(["verify", "lemma3", "--budget", "0", "--trials", "1"])
        assert (args.budget, args.trials) == (0.0, 1)
        assert main(["solve", *NKL, "--budget", "abc"]) == 3
        assert "invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
    def test_unread_flag_is_refused(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: signedfam")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, text, payload", FORMULA_OUTPUT, ids=[case[0][0] for case in FORMULA_OUTPUT]
    )
    def test_formula_output(self, argv, text, payload, capsys):
        assert main(["formula", *argv]) == 0
        assert capsys.readouterr().out == text
        assert main(["formula", *argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv, text", CONSTRUCT_OUTPUT, ids=[" ".join(case[0]) for case in CONSTRUCT_OUTPUT]
    )
    def test_construct_output(self, argv, text, capsys):
        assert main(["construct", *argv]) == 0
        assert capsys.readouterr().out == text

    def test_one_parser_serves_consecutive_commands(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        p_split = ["formula", "p-split", "--n", "10", "--k", "2", "--l", "1"]
        out = tmp_path / "p.json"
        assert main([*p_split, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"value": 63, "argmax": 7}
        assert main(p_split) == 0
        assert capsys.readouterr().out == "value: 63\nargmax: 7\n"
        assert main(["solve", *NKL, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("n,k,l,target,value,status,nodes")
        assert main(["solve", *NKL, "--target", "m"]) == 0
        assert capsys.readouterr().out.startswith("n: 4\nk: 2\nl: 1\ntarget: m\n")
        assert main(["classify", "--vector", "++--+"]) == 0
        assert capsys.readouterr().out == "++--+: B1 t=1 m=0 in_b1_prime=True\n"
