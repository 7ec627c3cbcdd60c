"""Checks of the benchmark itself: metric lists, reference table, failure path."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from signedfam import formulas, solver, vectors

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOADS


def _independent_value(entry):
    n, k, l, target, source = entry["n"], entry["k"], entry["l"], entry["target"], entry["source"]
    if source == "closed-form-l1":
        return formulas.g_closed_l1(n, k)
    if source == "ekr-window":
        value, in_range = formulas.g_ekr_value(n, k, l)
        assert in_range
        return value
    if source == "whole-class":
        assert target == "m" and l == 0
        return vectors.Profile(n, k, l).family_size()
    if source == "oracle":
        spec = (solver.ForbiddenSpec.exact({-2 * l}) if target == "g"
                else solver.ForbiddenSpec.all_below(0))
        graph = solver.build_conflict_graph(vectors.Profile(n, k, l), spec)
        return solver.mis_bruteforce(graph).value
    assert source == "seed"
    return None


def test_reference_values_match_their_independent_source():
    ref = workloads.load_reference()
    entries = ref["instances"] + ref["cli_keys"] + [ref["cli_heavy"]]
    for entry in entries:
        expected = _independent_value(entry)
        if expected is not None:
            assert entry["value"] == expected, entry
    independent = {workloads.instance_name(e) for e in ref["instances"] if e["source"] != "seed"}
    assert independent == {"g-11-3-1", "g-7-2-1-unpruned", "g-10-5-2", "g-9-4-2"}


def test_every_ladder_instance_has_a_reference():
    names = {workloads.instance_name(e) for e in workloads.load_reference()["instances"]}
    for ladder in workloads.LADDERS.values():
        assert set(ladder) <= names


def test_prefill_leaves_one_key_of_each_group_by_seed():
    keys = list(range(10))
    chosen = workloads.prefill_choice(keys, seed=7)
    assert chosen == workloads.prefill_choice(keys, seed=7)
    for start in range(0, 10, workloads.PREFILL_GROUP):
        assert chosen[start:start + workloads.PREFILL_GROUP].count(False) == 1
    assert any(workloads.prefill_choice(keys, seed=s) != chosen for s in range(8, 20))


def test_tail_is_the_value_with_ten_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == 89.0
    assert run.tail([3.0, 1.0, 2.0]) == 3.0


def _copy_checkout(dest, with_src=True):
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(dest, workload):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=dest, capture_output=True, text=True, timeout=170,
    )


def test_wrong_reference_value_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    ref_file = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_file.read_text())
    ref["cli_keys"][0]["value"] += 1
    ref_file.write_text(json.dumps(ref))

    proc = _run(tmp_path, "cli-cache")
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    assert result["correct"] is False
    assert result["failed"] == record["passes"]  # the key is requested once per pass
    assert record["fail_frac"] == pytest.approx(result["failed"] / result["attempted"])
    assert "!= reference" in proc.stderr


def test_run_without_the_package_exits_nonzero_silently(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "cli-cache")
    assert proc.returncode != 0
    assert proc.stdout == ""
