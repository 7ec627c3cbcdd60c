"""Command line interface.

Each command takes only the flags its handler reads:

- enumerate: --n --k --l --out
- solve: --n --k --l --target --no-shift-pruning --witness-out
  --vertex-cap --cache --budget --format json|csv --out
- construct KIND: --n --k --l --out and the kind's own arguments
  (split --plus-prefix, extend --base, xy --t --m --side)
- classify: --vector or --family, --format json, --out
- formula NAME: the arguments NAME takes, --format json, --out
- verify SUITE: --n --k --l --seed --budget --trials --format json|csv --out
  (verify list: --out only)
- report: --suites (at least one name) --seed --budget --trials
  --format json|csv --out

--budget is seconds, 0 or more; --trials is 1 or more.  verify and report
print suites.render: text, one JSON document, or CSV with one header row.

Exit codes: 0 success, 1 verification failure, 2 solver budget exhausted
(result is a lower bound, not exact), 3 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import constructions, formulas, solver, suites
from .cache import ResultCache, cache_key
from .vectors import Profile, SignedVector, VectorFamily, enumerate_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BUDGET = 2
EXIT_INVALID = 3

_NKL = ("n", "k", "l")

# formula name -> (function, the arguments it takes in order)
_FORMULAS = {
    "family-size": (formulas.family_size, _NKL),
    "g-closed-l1": (formulas.g_closed_l1, ("n", "k")),
    "g-bounds": (formulas.g_bounds, _NKL),
    "g-ekr": (formulas.g_ekr_value, _NKL),
    "increment": (formulas.increment_value, _NKL),
    "p-split": (formulas.p_split, _NKL),
    "p-increment": (formulas.p_increment_report, _NKL),
    "n0": (formulas.n0_threshold, ("k", "l")),
    "xy-sizes": (formulas.xy_family_sizes, _NKL + ("t", "m")),
    "ratio-alpha": (formulas.ratio_and_alpha, _NKL + ("t", "m")),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the invalid-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _required_ints(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        p.add_argument(f"--{name}", type=int, required=True)


def _output_args(p: argparse.ArgumentParser, formats=()) -> None:
    if formats:
        p.add_argument(
            "--format",
            choices=formats,
            dest="fmt",
            help="machine-readable output format (default: plain text)",
        )
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _at_least(low, parse):
    """An argparse type: parse the text, then refuse values below low (and NaN)."""

    def check(text: str):
        value = parse(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    check.__name__ = parse.__name__  # argparse names the type in its messages
    return check


_BUDGET = _at_least(0, float)


def _suite_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.add_argument("--budget", type=_BUDGET, help="time budget in seconds")
    p.add_argument("--trials", type=_at_least(1, int), help="randomized suites: number of trials")
    _output_args(p, ["json", "csv"])


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared: do not modify it."""
    parser = _Parser(prog="signedfam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a whole vector class")
    _required_ints(p, _NKL)
    _output_args(p)

    p = sub.add_parser("solve", help="exact extremal family size")
    _required_ints(p, _NKL)
    p.add_argument("--target", choices=["g", "m"], default="g")
    p.add_argument(
        "--no-shift-pruning",
        action="store_true",
        help="search all families instead of shifted representatives",
    )
    p.add_argument(
        "--witness-out",
        metavar="FILE",
        help="write the family found here; it is optimal only when the status is exact",
    )
    p.add_argument("--vertex-cap", type=_at_least(1, int), default=solver.DEFAULT_VERTEX_CAP)
    p.add_argument("--cache", metavar="PATH", help="JSON result cache file")
    p.add_argument("--budget", type=_BUDGET, default=60.0, help="time budget in seconds")
    _output_args(p, ["json", "csv"])

    kinds = sub.add_parser("construct", help="build a named family").add_subparsers(
        dest="kind", required=True
    )
    for kind in ("ekr", "split", "extend", "xy"):
        p = kinds.add_parser(kind)
        _required_ints(p, _NKL)
        if kind == "split":
            p.add_argument("--plus-prefix", type=int, help="size of the plus side prefix")
        elif kind == "extend":
            p.add_argument("--base", metavar="FILE", help="family file to grow by one dimension")
        elif kind == "xy":
            _required_ints(p, ("t", "m"))
            p.add_argument("--side", choices=["x", "y"], required=True, help="which class")
        _output_args(p)

    p = sub.add_parser("classify", help="label vectors ending in +1")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--vector", help="single vector, e.g. '+0-+'")
    source.add_argument("--family", metavar="FILE", help="family file to partition and label")
    _output_args(p, ["json"])

    names = sub.add_parser("formula", help="evaluate a closed form").add_subparsers(
        dest="name", required=True
    )
    for name, (_, args) in _FORMULAS.items():
        p = names.add_parser(name)
        _required_ints(p, args)
        _output_args(p, ["json"])

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", help="suite name, or 'list' to show the available names")
    for name in _NKL:
        p.add_argument(f"--{name}", type=int)
    _suite_args(p)

    p = sub.add_parser("report", help="run several suites together")
    p.add_argument(
        "--suites",
        default="default",
        help="comma-separated names, 'default' (all but eq111), or 'all'",
    )
    _suite_args(p)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args) -> int:
    fam = enumerate_all(Profile(args.n, args.k, args.l))
    _emit(fam.to_text(), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    profile = Profile(args.n, args.k, args.l)
    solver.target_spec(profile, args.target)  # refuse a bad target before reading the cache
    # refuse a path the solve could not write before spending the search on it
    for path in (args.cache, args.witness_out, args.out):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"directory of {path} does not exist")
    pruning = not args.no_shift_pruning
    cache = ResultCache(args.cache) if args.cache else None
    cached = cache.answer(args.n, args.k, args.l, args.target, pruning) if cache else None
    payload = {"n": args.n, "k": args.k, "l": args.l, "target": args.target}
    if cached and not args.witness_out:
        payload.update(value=cached["value"], status=cached["status"], cached=True)
        _emit(_payload_text(payload, args.fmt), args.out)
        return EXIT_OK

    result = solver.solve_extremal(
        profile,
        args.target,
        budget=args.budget,
        shifted_pruning=pruning,
        vertex_cap=args.vertex_cap,
    )
    key = cache_key(args.n, args.k, args.l, args.target, pruning)
    if cache and cache.put(key, result.value, result.status):
        cache.save()
    if args.witness_out and result.witness is not None:
        result.witness.save(args.witness_out)

    payload.update(
        value=result.value,
        status=result.status,
        nodes=result.nodes_explored,
        elapsed_seconds=round(result.elapsed, 3),
        cached=False,
    )
    _emit(_payload_text(payload, args.fmt), args.out)
    return EXIT_OK if result.is_exact else EXIT_BUDGET


def _payload_text(payload: dict, fmt: Optional[str]) -> str:
    """One flat result as "key: value" lines, JSON, or a CSV header and row."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        keys = list(payload)
        return ",".join(keys) + "\n" + ",".join(str(payload[k]) for k in keys) + "\n"
    lines = [f"{key}: {value}" for key, value in payload.items()]
    return "\n".join(lines) + "\n"


def _cmd_construct(args) -> int:
    profile = Profile(args.n, args.k, args.l)
    if args.kind == "ekr":
        fam = constructions.ekr_family(profile)
    elif args.kind == "split":
        if args.plus_prefix is None:
            fam = constructions.best_split_family(profile)
        else:
            fam = constructions.split_family(profile, range(1, args.plus_prefix + 1))
    elif args.kind == "extend":
        # the extension keeps g's floor, so it takes g's profiles only
        spec = solver.target_spec(profile, "g")
        if args.base:
            base = VectorFamily.load(args.base)
            if (base.profile.n, base.profile.k, base.profile.l) != (args.n, args.k, args.l):
                raise ValueError(
                    f"base family is over ({base.profile.n},{base.profile.k},{base.profile.l}), "
                    f"not ({args.n},{args.k},{args.l})"
                )
            check = solver.verify_family(base, spec)
            if not check.ok:
                a, b, _ = check.violation
                raise ValueError(f"base family reaches the minimum product on pair {a}, {b}")
        else:
            base = constructions.ekr_family(profile)
        fam = constructions.inductive_extend(base)
    else:
        fam = constructions.family_xy_tm(profile, args.t, args.m, args.side)
    _emit(fam.to_text(), args.out)
    return EXIT_OK


def _label_dict(v: SignedVector) -> dict:
    label = constructions.classify_vector(v)
    out = {"vector": str(v), "kind": label.kind}
    if label.kind == "B1":
        out.update({"t": label.t, "m": label.m, "in_b1_prime": label.in_b1_prime})
    elif label.kind == "B2":
        out.update({"j": label.j, "jprime": label.jprime, "cond12": label.cond12})
    return out


def _cmd_classify(args) -> int:
    rows: list[dict] = []
    if args.vector is not None:
        rows.append(_label_dict(SignedVector.parse(args.vector)))
    else:
        fam = VectorFamily.load(args.family)
        minus, zero, plus = constructions.partition_by_last(fam)
        rows.append(
            {
                "vector": "(partition)",
                "kind": f"last=-1:{len(minus)} last=0:{len(zero)} last=+1:{len(plus)}",
            }
        )
        rows.extend(_label_dict(v) for v in plus)

    if args.fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = "".join(
            row["vector"]
            + ": "
            + row["kind"]
            + "".join(f" {k}={v}" for k, v in row.items() if k not in ("vector", "kind"))
            + "\n"
            for row in rows
        )
    _emit(text, args.out)
    return EXIT_OK


def _cmd_formula(args) -> int:
    function, names = _FORMULAS[args.name]
    result = function(*(getattr(args, name) for name in names))
    fields = {"value": result} if isinstance(result, int) else result._asdict()
    payload = {
        key: str(value) if isinstance(value, Fraction) else value
        for key, value in fields.items()
        if key not in names
    }
    _emit(_payload_text(payload, args.fmt), args.out)
    return EXIT_OK


def _suite_params(args) -> dict:
    names = ("seed", "budget", "trials") + _NKL
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _cmd_verify(args) -> int:
    if args.suite == "list":
        given = [f"--{name}" for name in _suite_params(args)] + (["--format"] if args.fmt else [])
        if given:
            raise ValueError(f"verify list takes no suite flags, got {' '.join(given)}")
        _emit("\n".join(suites.suite_names()) + "\n", args.out)
        return EXIT_OK
    report = suites.run_suite(args.suite, **_suite_params(args))
    _emit(suites.render([report], args.fmt), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _cmd_report(args) -> int:
    if args.suites == "all":
        names = suites.suite_names()
    elif args.suites == "default":
        names = [name for name in suites.suite_names() if name != "eq111"]
    else:
        names = [name.strip() for name in args.suites.split(",") if name.strip()]
        if not names:
            raise ValueError(f"--suites {args.suites!r} names no suite")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"--suites {args.suites!r} repeats suite {', '.join(repeated)}")
    params = _suite_params(args)
    # resolve every name first, so a misspelt one runs no suite
    accepted = {name: suites.suite_parameters(name) for name in names}
    reports = []
    for name in names:
        kwargs = {key: value for key, value in params.items() if key in accepted[name]}
        reports.append(suites.run_suite(name, **kwargs))
    _emit(suites.render(reports, args.fmt), args.out)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY_FAIL


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "solve": _cmd_solve,
    "construct": _cmd_construct,
    "classify": _cmd_classify,
    "formula": _cmd_formula,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
