"""Pins of the program's outputs: the seed-7 report and a sweep of solves.

A change that alters either output on purpose updates its pin and says
why in CHANGES.md.
"""

import hashlib

from signedfam import Profile, solver
from signedfam.cli import main

REPORT_BYTES = 39272
REPORT_SHA256 = "c427b09d4203b416ce2c156fccb33d9f374c07287d61a76cde17030f7c863890"
SOLVES = 431
SOLVES_SHA256 = "12b2683393348e0a0bcbccf5a7f7e33845ee8c2fcb8de1abed5cc445f90e1551"


def test_report_of_every_suite_at_seed_7(tmp_path):
    path = tmp_path / "report.json"
    argv = ["report", "--suites", "all", "--seed", "7", "--format", "json", "--out", str(path)]
    assert main(argv) == 0
    data = path.read_bytes()
    assert len(data) == REPORT_BYTES
    assert hashlib.sha256(data).hexdigest() == REPORT_SHA256


def test_solves_of_every_small_class():
    """Every class with 2 <= n <= 10 and at most 2000 vectors, each target, loop order.

    Each solve is pruned; a class of at most 120 vectors is solved
    unpruned too.  The digest covers value, status, node count and
    witness of each.
    """
    digest = hashlib.sha256()
    solves = 0
    for n in range(2, 11):
        for k in range(1, n + 1):
            for l in range(0, n - k + 1):
                profile = Profile(n, k, l)
                size = profile.family_size()
                if size > 2000:
                    continue
                for target in ("g", "m") if profile.is_g_profile else ("m",):
                    for pruned in (True, False) if size <= 120 else (True,):
                        r = solver.solve_extremal(profile, target, budget=120, shifted_pruning=pruned)
                        row = (n, k, l, target, pruned, r.value, r.status, r.nodes_explored,
                               r.witness_indices, r.witness.to_text())
                        digest.update(repr(row).encode())
                        solves += 1
    assert solves == SOLVES
    assert digest.hexdigest() == SOLVES_SHA256
