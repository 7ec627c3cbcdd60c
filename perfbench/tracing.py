"""Per-layer tracing of signedfam from outside the package.

Each layer is one module of ``signedfam``.  The tracer replaces chosen
public functions with wrappers, by identity, in every loaded
``signedfam`` module that binds them (``solver`` imports ``precedes``,
``scalar_product`` and ``enumerate_all`` by name, so patching the
defining module alone would miss those calls).  Functions called once
per vector pair are only counted; the others also record a span
``[name, start, end, parent]``.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Optional

PACKAGE = "signedfam"

# (module, attribute) of functions that get a span and a call count
SPANNED = [
    ("vectors", "enumerate_all"),
    ("constructions", "family_xy_tm"),
    ("constructions", "ekr_family"),
    ("constructions", "inductive_extend"),
    ("constructions", "split_family"),
    ("witness", "construct_witness"),
    ("witness", "verify_trace_claims"),
    ("solver", "build_conflict_graph"),
    ("solver", "solve_extremal"),
    ("solver", "mis_exact"),
    ("solver", "mis_bruteforce"),
    ("solver", "greedy_seed_g"),
    ("solver", "verify_family"),
    ("bipartite", "lemma3_check"),
    ("cli", "build_parser"),
    ("cli", "main"),
    ("cache", "ResultCache._load"),
    ("cache", "ResultCache.save"),
]

# hot functions: a call count only, no span
COUNTED = [
    ("vectors", "scalar_product"),
    ("vectors", "SignedVector.__post_init__"),
    ("shifting", "precedes"),
    ("shifting", "precedes_oracle"),
    ("cache", "ResultCache.get"),
]

# every public formulas function except the per-term binom is spanned
FORMULAS_SKIPPED = {"binom"}

# span names that differ from "<module>.<attribute>"
RENAMED = {
    "cache.ResultCache._load": "cache.load",
    "cache.ResultCache.save": "cache.save",
    "cache.ResultCache.get": "cache.get",
    "vectors.SignedVector.__post_init__": "vectors.members_built",
}


class Tracer:
    """Spans and counters collected while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; observe(args, kwargs, result) runs after it returns."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts[key] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Wrap fn in a call counter; observe(args, kwargs, result) as for spanned."""
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a loaded signedfam module binds it."""
        names = {name for name, _ in SPANNED + COUNTED} | {"formulas"}
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}
        formulas = modules["formulas"]
        spanned = SPANNED + [
            ("formulas", name)
            for name, value in vars(formulas).items()
            if callable(value)
            and not isinstance(value, type)
            and not name.startswith("_")
            and name not in FORMULAS_SKIPPED
            and value.__module__ == formulas.__name__
        ]
        # the shift-pruned engine is private: counted for its search nodes, no span
        counted = COUNTED + [("solver", "_solve_shifted")]
        observers = _observers(self.counts)
        for table, wrap in ((spanned, self.spanned), (counted, self.counted)):
            for module_name, attr in table:
                full = f"{module_name}.{attr}"
                name = RENAMED.get(full, full)
                owner, leaf = _resolve(modules[module_name], attr)
                original = vars(owner)[leaf]
                self._replace(owner, leaf, original, wrap(name, original, observers.get(name)))

    def _replace(self, owner, leaf, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _resolve(module, attr: str):
    """(owner, name) of "function" or "Class.method" in module."""
    cls, _, leaf = attr.rpartition(".")
    return (getattr(module, cls) if cls else module), leaf


def _observers(counts: Counter) -> dict[str, Callable]:
    """Result hooks that turn return values into counters."""

    def search(args, kwargs, result):
        counts["solver.nodes"] += result.nodes_explored
        counts["solver.search_s"] += result.elapsed

    def solve(args, kwargs, result):
        target = args[1] if len(args) > 1 else kwargs.get("target")
        if target == "g":
            counts["solver.g_values"] += result.value

    def seed(args, kwargs, result):
        counts["solver.seed_members"] += len(result)

    def pairs(args, kwargs, result):
        counts["solver.verify_family.pairs"] += result.pairs_checked

    def cache_get(args, kwargs, result):
        if result is not None:
            counts["cache.get.hits"] += 1

    return {
        "solver._solve_shifted": search,
        "solver.mis_exact": search,
        "solver.solve_extremal": solve,
        "solver.greedy_seed_g": seed,
        "solver.verify_family": pairs,
        "cache.get": cache_get,
    }


def self_times(spans: Iterable[list]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its child
    spans.  Children of one span run one after another inside it, so
    their durations add up to the part of the parent they cover.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


# per-layer metrics derived from one traced pass: name -> unit
LAYER_METRICS = {
    "vectors.scalar_product.calls": "count",
    "vectors.enumerate_all.calls": "count",
    "vectors.enumerate_all.self_s": "s",
    "vectors.members_built": "count",
    "shifting.precedes.calls": "count",
    "shifting.precedes_oracle.calls": "count",
    "solver.build_conflict_graph.self_s": "s",
    "solver.solve_extremal.self_s": "s",
    "solver.mis_exact.self_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.seed_ratio": "ratio",
    "solver.greedy_seed_g.self_s": "s",
    "solver.verify_family.pairs": "count",
    "solver.mis_bruteforce.self_s": "s",
    "constructions.family_xy_tm.self_s": "s",
    "constructions.family_xy_tm.calls": "count",
    "constructions.ekr_family.self_s": "s",
    "constructions.ekr_family.calls": "count",
    "constructions.inductive_extend.self_s": "s",
    "constructions.inductive_extend.calls": "count",
    "constructions.split_family.self_s": "s",
    "constructions.split_family.calls": "count",
    "witness.construct_witness.self_s": "s",
    "witness.verify_trace_claims.self_s": "s",
    "bipartite.lemma3_check.self_s": "s",
    "formulas.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.main.self_s": "s",
    "cache.load.self_s": "s",
    "cache.save.self_s": "s",
    "cache.get.calls": "count",
    "cache.hit_ratio": "ratio",
}


def layer_metrics(spans: Iterable[list], counts: Counter) -> dict[str, float]:
    """Values of LAYER_METRICS; a layer the pass never entered reads 0."""
    own = self_times(spans)
    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = own.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, counts.get(name + ".calls", 0))
    values["formulas.self_s"] = sum(t for name, t in own.items() if name.startswith("formulas."))
    values["solver.nodes_per_s"] = _ratio(counts["solver.nodes"], counts["solver.search_s"])
    values["solver.seed_ratio"] = _ratio(counts["solver.seed_members"], counts["solver.g_values"])
    values["cache.hit_ratio"] = _ratio(counts["cache.get.hits"], counts["cache.get.calls"])
    return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
