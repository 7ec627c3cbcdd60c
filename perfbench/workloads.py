"""The benchmark's workloads: inputs made from a seed, and output checks.

Every operation is a callable timed on its own; its check runs after
the timer stops and returns an error string, or None when the output
is correct.

- ``g-setup``: shift-pruned g solves at V up to 2520 vectors, where the
  O(V^2) pairwise setup (scalar products, shift-order closure) dominates.
- ``m-search``: m solves and an unpruned g solve at V <= 210, where the
  branch-and-bound search dominates and the setup is negligible.
- ``verify-suites``: seven verification suites; bulk vector
  construction, oracles, witnesses, bipartite checks and formulas.
- ``cli-cache``: ``signedfam solve --cache`` requests in process over
  small keys, two thirds of them prefilled, plus one larger miss.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

WORKLOADS = ["g-setup", "m-search", "verify-suites", "cli-cache"]

LADDERS = {
    "g-setup": ["g-9-3-2", "g-10-3-2", "g-10-5-2", "g-11-3-1", "g-9-4-2"],
    "m-search": ["m-7-3-2", "m-8-2-1", "m-7-3-1", "m-7-2-2", "g-7-2-1-unpruned"],
}

# suite name -> fixed parameters; the seeded suites also get a seed
SUITES = {
    "lemma1": {},
    "precedes": {},
    "constructions": {"max_n": 24},
    "lemma3": {},
    "solver-oracle": {},
    "p-increment": {},
    "ratios": {"max_dim": 10},
}
SEEDED_SUITES = ("precedes", "lemma3", "solver-oracle")

# one cli key in PREFILL_GROUP is left out of the prefilled cache
PREFILL_GROUP = 3

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def instance_name(entry: dict) -> str:
    name = f"{entry['target']}-{entry['n']}-{entry['k']}-{entry['l']}"
    return name if entry["pruned"] or entry["target"] == "m" else name + "-unpruned"


def load_reference(path: str = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def build_ops(workload: str, seed: int, sf, reference: dict, workdir: str) -> list[Op]:
    """Operations of one pass; cli-cache also prefills its cache here.

    sf is the imported signedfam package; every call goes through its
    module attributes so that a tracer installed later sees it.
    """
    if workload in LADDERS:
        by_name = {instance_name(e): e for e in reference["instances"]}
        names = list(LADDERS[workload])
        _rng(seed, "order").shuffle(names)
        return [_solve_op(sf, by_name[name]) for name in names]
    if workload == "verify-suites":
        # a fixed suite order: the peak RSS depends on it
        names = list(SUITES)
        suite_rng = _rng(seed, "suites")
        seeds = {name: suite_rng.randrange(2**32) for name in SEEDED_SUITES}
        return [_suite_op(sf, name, seeds) for name in names]
    if workload == "cli-cache":
        return _cli_ops(sf, seed, reference, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _pruning(entry: dict) -> Optional[bool]:
    """solve_extremal's shifted_pruning argument for a reference entry."""
    return None if entry["target"] == "m" or entry["pruned"] else False


def _solve_op(sf, entry: dict) -> Op:
    n, k, l, target = entry["n"], entry["k"], entry["l"], entry["target"]
    pruning = _pruning(entry)

    def run():
        return sf.solver.solve_extremal(
            sf.vectors.Profile(n, k, l), target, budget=600.0, shifted_pruning=pruning
        )

    def check(result) -> Optional[str]:
        if result.status != sf.solver.STATUS_EXACT:
            return f"status {result.status}"
        if result.value != entry["value"]:
            return f"value {result.value} != reference {entry['value']} ({entry['source']})"
        fam = result.witness
        if fam is None or len(fam) != result.value:
            return f"witness has {0 if fam is None else len(fam)} members, value {result.value}"
        if target == "g":
            spec = sf.solver.ForbiddenSpec.exact({-2 * l})
            lower, upper = sf.formulas.g_bounds(n, k, l)
            if not lower <= result.value <= upper:
                return f"value {result.value} outside g_bounds [{lower}, {upper}]"
        else:
            spec = sf.solver.ForbiddenSpec.all_below(0)
            split = sf.formulas.p_split(n, k, l).value
            if result.value < split:
                return f"value {result.value} below p_split {split}"
        if not sf.solver.verify_family(fam, spec).ok:
            return "witness does not re-verify"
        return None

    return Op(instance_name(entry), run, check)


def _suite_op(sf, name: str, seeds: dict) -> Op:
    params = dict(SUITES[name])
    if name in seeds:
        params["seed"] = seeds[name]

    def check(report) -> Optional[str]:
        if report.ok:
            return None
        failed = [c.case for c in report.cases if c.required and not c.passed]
        return f"suite {name} failed: {', '.join(failed)}"

    return Op(name, lambda: sf.suites.run_suite(name, **params), check)


def cli_argv(entry: dict, cache_path: str) -> list[str]:
    argv = ["solve", "--n", str(entry["n"]), "--k", str(entry["k"]), "--l", str(entry["l"])]
    argv += ["--target", entry["target"]]
    if entry["target"] == "g" and not entry["pruned"]:
        argv.append("--no-shift-pruning")
    return argv + ["--cache", cache_path, "--format", "json"]


def prefill_choice(keys: list, seed: int) -> list[bool]:
    """Which keys are prefilled: all but one, chosen by seed, of each group.

    Keys are listed by ascending solve cost, so every seed leaves out a
    key of each cost band and the hit and miss latencies stay alike.
    """
    rng = _rng(seed, "prefill")
    chosen = [True] * len(keys)
    for start in range(0, len(keys), PREFILL_GROUP):
        group = range(start, min(start + PREFILL_GROUP, len(keys)))
        chosen[rng.choice(group)] = False
    return chosen


def _cli_ops(sf, seed: int, reference: dict, workdir: str) -> list[Op]:
    keys = reference["cli_keys"]
    prefilled = prefill_choice(keys, seed)
    path = os.path.join(workdir, "cache.json")
    cache = sf.cache.ResultCache(path)
    for entry, fill in zip(keys, prefilled):
        if fill:
            result = sf.solver.solve_extremal(
                sf.vectors.Profile(entry["n"], entry["k"], entry["l"]),
                entry["target"],
                shifted_pruning=_pruning(entry),
            )
            key = sf.cache.cache_key(entry["n"], entry["k"], entry["l"], entry["target"], entry["pruned"])
            cache.put(key, result.value, result.status)
    cache.save()

    requests = list(zip(keys, prefilled))
    requests.append((reference["cli_heavy"], False))
    _rng(seed, "order").shuffle(requests)
    return [_cli_op(sf, entry, hit, path) for entry, hit in requests]


def _cli_op(sf, entry: dict, hit: bool, path: str) -> Op:
    argv = cli_argv(entry, path)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sf.cli.main(argv)
        return code, out.getvalue()

    def check(outcome) -> Optional[str]:
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return f"output is not JSON: {text[:80]!r}"
        if payload.get("status") != "exact":
            return f"status {payload.get('status')}"
        if payload.get("value") != entry["value"]:
            return f"value {payload.get('value')} != reference {entry['value']} ({entry['source']})"
        if payload.get("cached") is not hit:
            return f"cached={payload.get('cached')}, expected {hit}"
        return None

    return Op(instance_name(entry) + (" hit" if hit else " miss"), run, check)
