"""One pass of one workload in a fresh process.

Started by run.py, never by hand.  Each pass gets its own process so
that per-process state (the solve memo in ``signedfam.suites``, the
allocator's peak) never carries over between passes.  The last line of
standard output is a JSON object with the set-up time, the time and
check outcome of each operation, the peak RSS and, in traced mode, the
per-layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass \
        --t0 MONOTONIC --workdir DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_signedfam():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    sf = importlib.import_module("signedfam")
    location = os.path.dirname(os.path.abspath(sf.__file__))
    if location != os.path.join(SRC, "signedfam"):
        raise ImportError(f"signedfam imported from {location}, not from {SRC}")
    importlib.import_module("signedfam.cli")  # the package does not import it
    return sf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "pass", "traced"], required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="traced mode: write spans here")
    args = parser.parse_args(argv)

    sf = import_signedfam()
    import tracing
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, sf, workloads.load_reference(), args.workdir)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        out["ops"] = run_pass(ops, tracer)
        out["pass_s"] = sum(seconds for _, seconds, _ in out["ops"])
        cache_file = os.path.join(args.workdir, "cache.json")
        out["file_bytes"] = os.path.getsize(cache_file) if os.path.exists(cache_file) else 0
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


def run_pass(ops, tracer) -> list:
    """Time each operation, then check it with the clock and the tracer off."""
    results = []
    for op in ops:
        error = None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error is None:
            error = op.check(outcome)
        results.append([op.name, seconds, error])
    return results


if __name__ == "__main__":
    sys.exit(main())
