"""signedfam benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload g-setup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Load is one closed-loop client: each
operation starts when the previous one has finished.  Every pass runs in
a fresh worker process (worker.py) that imports ``signedfam`` from this
checkout's ``src/``.

With ``--trace 0`` the run makes untraced passes for about ``--seconds``
seconds (whole passes, at least one) and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced passes
(at least one of each) and reports the per-layer metrics.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the seed, the environment and the sample
counts.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "signedfam")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Operation latency is per-layer: every workload reports every end-to-end
# metric, and on the ladders a latency rests on one timing of one
# instance or suite, too unsteady to bound.
PER_LAYER = {"op_p50_ms": "ms", "op_tail_ms": "ms"}
PER_LAYER.update(tracing.LAYER_METRICS)
PER_LAYER["cache.file_bytes"] = "bytes"
PER_LAYER["trace.overhead_frac"] = "ratio"
for _name in workloads.LADDERS["g-setup"] + workloads.LADDERS["m-search"]:
    PER_LAYER[f"solve_s.{_name}"] = "s"
for _name in workloads.SUITES:
    PER_LAYER[f"suites.{_name}.s"] = "s"

# set-ups per run, counting those of the measured passes
MIN_SETUPS = 9
# operations beyond the tail percentile
TAIL_BEYOND = 10
# a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float, spans: str = "") -> dict:
    """One pass (or set-up only) in a fresh process; returns its JSON result."""
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_DIR)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    try:
        timeout = max(1.0, deadline - time.monotonic())
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        wall = time.monotonic() - t0
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall"] = wall
    return result


def tail(values: list[float]) -> float:
    """Highest order statistic with TAIL_BEYOND values above it; the maximum for short lists."""
    ordered = sorted(values)
    return ordered[-TAIL_BEYOND - 1] if len(ordered) > TAIL_BEYOND else ordered[-1]


def op_seconds(passes: list[dict]) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for p in passes:
        for name, seconds, _ in p["ops"]:
            times.setdefault(name, []).append(seconds)
    return times


def measure(workload: str, seed: int, seconds: float, start: float) -> tuple[dict, dict, list]:
    deadline = start + RUN_LIMIT_S
    # set-ups before and after the passes, so they sample the machine at
    # both ends of the run
    setups = [run_worker(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(MIN_SETUPS // 2)]
    passes: list[dict] = []
    stop = time.monotonic() + seconds
    while True:
        passes.append(run_worker(workload, seed, "pass", deadline))
        setups.append(passes[-1]["setup_s"])
        if time.monotonic() + statistics.median(p["wall"] for p in passes) > stop:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, "setup", deadline)["setup_s"])
    metrics = {
        "wall_s": statistics.median(p["pass_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["maxrss_mb"] for p in passes),
    }
    info = {"passes": len(passes), "setups": len(setups), "ops_per_pass": len(passes[0]["ops"])}
    return metrics, info, passes


def op_latency(passes: list[dict]) -> tuple[dict, dict]:
    """Median over passes of each pass's median and tail operation time."""
    per_pass = [[s for _, s, _ in p["ops"]] for p in passes]
    n_ops = len(per_pass[0])
    metrics = {
        "op_p50_ms": 1000 * statistics.median(statistics.median(ops) for ops in per_pass),
        "op_tail_ms": 1000 * statistics.median(tail(ops) for ops in per_pass),
    }
    info = {
        "op_samples": sum(len(ops) for ops in per_pass),
        "op_tail_rank": f"{max(n_ops - TAIL_BEYOND, 1)} of {n_ops} per pass",
    }
    return metrics, info


def measure_traced(workload: str, seed: int, seconds: float, start: float) -> tuple[dict, dict, list]:
    deadline = start + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    plain: list[dict] = []
    traced: list[dict] = []
    stop = time.monotonic() + seconds
    while True:
        plain.append(run_worker(workload, seed, "pass", deadline))
        traced.append(run_worker(workload, seed, "traced", deadline, spans))
        pair = plain[-1]["wall"] + traced[-1]["wall"]
        if time.monotonic() + pair > stop:
            break
    metrics = {name: statistics.median_low(p["layers"][name] for p in traced)
               for name in tracing.LAYER_METRICS}
    metrics["cache.file_bytes"] = statistics.median_low(p["file_bytes"] for p in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in plain) - 1
    )
    latency, info = op_latency(plain)
    metrics.update(latency)
    times = op_seconds(plain)
    for name in PER_LAYER:
        if name.startswith("solve_s."):
            metrics[name] = statistics.median(times.get(name[len("solve_s."):], [0.0]))
        elif name.startswith("suites."):
            metrics[name] = statistics.median(times.get(name[len("suites."):-len(".s")], [0.0]))
    info.update(pairs=len(plain), spans_file=os.path.relpath(spans, ROOT))
    return metrics, info, plain + traced


def environment() -> dict:
    src = os.path.dirname(SRC_PACKAGE)
    lines = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": lines,
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no signedfam package at {SRC_PACKAGE}", file=sys.stderr)
        return 2

    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, info, passes = measure_fn(args.workload, args.seed, args.seconds, start)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)  # each worker already removed its own directory

    errors = [f"{name}: {error}" for p in passes for name, _, error in p["ops"] if error]
    attempted = sum(len(p["ops"]) for p in passes)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "fail_frac": len(errors) / attempted,
        "errors": errors[:20],
        **info,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
