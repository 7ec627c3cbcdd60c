"""Public names, running without networkx, and the names the benchmark tracer patches."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import signedfam
from signedfam import solver
from signedfam.vectors import Profile, enumerate_all

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves_once():
    assert [name for name, count in Counter(signedfam.__all__).items() if count > 1] == []
    assert [name for name in signedfam.__all__ if not hasattr(signedfam, name)] == []
    # __all__ is read off the imports' bindings: no submodule and no dunder
    assert [
        name for name in signedfam.__all__
        if name.startswith("_") or isinstance(getattr(signedfam, name), types.ModuleType)
    ] == []


def _bindings():
    """id of every value a loaded signedfam module, or a class it defines, binds."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "signedfam" or mod_name.startswith("signedfam.")):
            continue
        for attr, value in vars(module).items():
            found[mod_name, attr] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for leaf, member in vars(value).items():
                    found[mod_name, attr, leaf] = id(member)
    return found


def _load_tracing():
    """perfbench/tracing.py as a module, read from its file and not installed."""
    spec = importlib.util.spec_from_file_location("signedfam_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/ beside the tests")
def test_benchmark_tracer_finds_every_name_it_patches():
    # the tracer looks up functions by name, so a renamed one fails here
    # rather than only in a traced benchmark run
    tracing = _load_tracing()
    for info in pkgutil.iter_modules(signedfam.__path__):
        importlib.import_module(f"signedfam.{info.name}")
    before = _bindings()
    solve = solver.solve_extremal
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert solver.solve_extremal is not solve
    finally:
        tracer.uninstall()
    assert solver.solve_extremal is solve
    assert _bindings() == before


@pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/ beside the tests")
def test_benchmark_tracer_counts_every_member_built():
    # members are built by SignedVector's constructor, where the tracer counts them
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        members = enumerate_all(Profile(6, 3, 2)).members
    finally:
        tracer.active = False
        tracer.uninstall()
    assert len(members) == 60
    assert tracing.layer_metrics(tracer.spans, tracer.counts)["vectors.members_built"] == 60


def test_runs_without_networkx():
    # None in sys.modules makes every import of networkx raise ImportError
    code = "\n".join([
        "import random, sys",
        "sys.modules['networkx'] = None",
        "import signedfam, signedfam.cli",
        "from signedfam import solver, suites",
        "print(solver.mis_bruteforce(suites._random_graph(random.Random(1), 25, 0.3)).value)",
    ])
    src = str(Path(signedfam.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
