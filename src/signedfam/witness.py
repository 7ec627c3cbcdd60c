"""Constructive witness: a shift-predecessor realizing the minimum product.

For a vector w of profile (n, k, l) with k >= l, two conditions govern
the construction:

  (i)  min_suffix_sum(w) >= 0, and
  (ii) for every t >= 1 with 2t - 1 <= n, the window [1, 2t-1] holds at
       most t - 1 plus-coordinates.

When both hold, construct_witness produces v preceding w in the shift
order with scalar_product(v, w) = -2l, together with a full trace of the
construction.  Every vector of a shifted family avoiding the product
-2l therefore violates (i) or (ii).
"""

from __future__ import annotations

from dataclasses import dataclass

from .shifting import shift_ij
from .vectors import SignedVector, full_window, min_suffix_sum, scalar_product


@dataclass(frozen=True)
class WitnessTrace:
    """Record of every intermediate object in the witness construction.

    neg_desc      minus-support of w, descending (q_1 > ... > q_l)
    pos_desc      plus-support of w, descending (p_1 > ... > p_k)
    nonplus_asc   first k indices whose value is not +1, ascending (r_1 < ... < r_k)
    pairing       tuples (q_i, p_s(i)): each minus index swapped with the
                  smallest unused plus index exceeding it, i = 1..l
    mid           vector after the l pairing shifts (u)
    zeros_asc     first k - l zero-indices of w, ascending (J)
    kept_plus_asc indices where w and mid both hold +1, ascending (J')
    result        final witness v after shifting each kept plus onto the
                  paired zero index
    """

    neg_desc: tuple[int, ...]
    pos_desc: tuple[int, ...]
    nonplus_asc: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...]
    mid: SignedVector
    zeros_asc: tuple[int, ...]
    kept_plus_asc: tuple[int, ...]
    result: SignedVector


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ClaimReport:
    checks: tuple[ClaimCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)


def check_conditions(w: SignedVector) -> tuple[bool, bool]:
    """Evaluate conditions (i) and (ii) for a vector; total on any input.

    (ii) fails exactly when some window [1, 2t-1] holds t plus
    coordinates: the plus count rises by at most 2 as t grows by 1, so
    the first window with more than t - 1 holds exactly t.
    """
    return min_suffix_sum(w) >= 0, full_window(w) is None


def construct_witness(w: SignedVector) -> tuple[SignedVector, WitnessTrace]:
    """Build the minimum-product witness v preceding w, with its trace.

    Requires k >= l and both conditions from check_conditions.
    """
    k, l = w.k, w.l
    if k < l:
        raise ValueError(f"witness construction requires k >= l, got k={k}, l={l}")
    cond_i, cond_ii = check_conditions(w)
    if not (cond_i and cond_ii):
        raise ValueError(
            f"conditions not met for {w}: suffix condition {cond_i}, window condition {cond_ii}"
        )

    neg_desc = tuple(sorted(w.neg_support(), reverse=True))
    pos_desc = tuple(sorted(w.pos_support(), reverse=True))
    nonplus = [i for i in range(1, w.dim + 1) if w.value_at(i) != 1]
    assert len(nonplus) >= k, "window condition guarantees k non-plus indices"
    nonplus_asc = tuple(nonplus[:k])

    pairing = []
    used: set[int] = set()
    cur = w
    for q in neg_desc:
        candidates = [p for p in pos_desc if p > q and p not in used]
        # claim1 guarantees enough pluses above q for every pairing step
        assert candidates, f"no unused plus index beyond {q} in {w}"
        p = min(candidates)
        used.add(p)
        pairing.append((q, p))
        cur = shift_ij(cur, q, p)
    mid = cur

    zeros_asc = tuple(i for i in range(1, w.dim + 1) if w.value_at(i) == 0)[: k - l]
    assert len(zeros_asc) == k - l, "window condition guarantees k - l zero indices"
    kept_plus_asc = tuple(
        i for i in range(1, w.dim + 1) if w.value_at(i) == 1 and mid.value_at(i) == 1
    )
    assert len(kept_plus_asc) == k - l

    for a, b in zip(zeros_asc, kept_plus_asc):
        cur = shift_ij(cur, a, b)
    result = cur

    trace = WitnessTrace(
        neg_desc=neg_desc,
        pos_desc=pos_desc,
        nonplus_asc=nonplus_asc,
        pairing=tuple(pairing),
        mid=mid,
        zeros_asc=zeros_asc,
        kept_plus_asc=kept_plus_asc,
        result=result,
    )
    return result, trace


def verify_trace_claims(trace: WitnessTrace, w: SignedVector) -> ClaimReport:
    """Re-derive and assert every invariant recorded on a witness trace."""
    k, l = w.k, w.l
    checks: list[ClaimCheck] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ClaimCheck(name, ok, detail if not ok else ""))

    add(
        "sizes",
        len(trace.neg_desc) == l
        and len(trace.pos_desc) == k
        and len(trace.nonplus_asc) == k
        and len(trace.pairing) == l
        and len(trace.zeros_asc) == k - l
        and len(trace.kept_plus_asc) == k - l,
        f"expected l={l}, k={k}, k-l={k - l}",
    )

    partners = [p for _, p in trace.pairing]
    add(
        "pairing",
        len(set(partners)) == len(partners)
        and all(w.value_at(q) == -1 and w.value_at(p) == 1 and p > q for q, p in trace.pairing),
        f"pairing {trace.pairing}",
    )

    claim1_a = all(q < p for q, p in zip(trace.neg_desc, trace.pos_desc))
    pos_asc = tuple(reversed(trace.pos_desc))
    claim1_b = all(pos_asc[i] > trace.nonplus_asc[i] for i in range(min(len(pos_asc), len(trace.nonplus_asc))))
    add("claim1", claim1_a and claim1_b, "interleaving of plus and non-plus indices failed")

    add(
        "claim2",
        all(a < b for a, b in zip(trace.zeros_asc, trace.kept_plus_asc)),
        f"zero targets {trace.zeros_asc} vs kept plus {trace.kept_plus_asc}",
    )

    # in [1, b] with the zero targets and kept plus indices removed, the
    # paired coordinates of w cancel exactly
    excluded = set(trace.zeros_asc) | set(trace.kept_plus_asc)
    zero_sum_ok = True
    zero_sum_detail = ""
    for b in trace.kept_plus_asc:
        total = sum(w.value_at(s) for s in range(1, b + 1) if s not in excluded)
        if total != 0:
            zero_sum_ok = False
            zero_sum_detail = f"window [1, {b}] sums to {total}"
            break
    add("zero_sum", zero_sum_ok, zero_sum_detail)

    # a corrupted trace may hold unusable move pairs; that is a failure,
    # not an error
    replay = w
    replay_ok = True
    try:
        for q, p in trace.pairing:
            replay = shift_ij(replay, q, p)
        if replay != trace.mid:
            replay_ok = False
        else:
            for a, b in zip(trace.zeros_asc, trace.kept_plus_asc):
                replay = shift_ij(replay, a, b)
            replay_ok = replay == trace.result
    except ValueError:
        replay_ok = False
    add("replay", replay_ok, "recorded intermediates do not replay from w")

    add(
        "product",
        scalar_product(trace.result, w) == -2 * l,
        f"product {scalar_product(trace.result, w)} != {-2 * l}",
    )

    return ClaimReport(tuple(checks))
