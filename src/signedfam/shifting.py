"""Coordinate shifts, the shift order, and family compression.

An (i <- j)-shift with i < j replaces coordinates (v_i, v_j) by
(max(v_i, v_j), min(v_i, v_j)): the larger value moves to the smaller
index.  Vector v precedes vector w when v is reachable from w by a
sequence of shifts.  A family is shifted when it is closed under every
single shift of every member, which is equivalent to closure under the
full reachability order.

shift_ij applies one shift to a vector; is_shifted, compress and
precedes_oracle are built on it, and the tests take them as the
reference.  shift_images is the same rule on (pos, neg) masks, every
image at once; shift_order and shift_closure are built on it and give
the solver a linear extension of the shift order and that order's
closure on a whole class.  compress says why searching shift-closed
families only keeps the optimum.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .vectors import SignedVector, VectorFamily, bits

_ORACLE_DIM_CAP = 8


def shift_ij(v: SignedVector, i: int, j: int) -> SignedVector:
    """Apply the (i <- j)-shift; returns v itself when v_i >= v_j."""
    if not (1 <= i < j <= v.dim):
        raise ValueError(f"invalid move ({i}, {j}) for dimension {v.dim}")
    if v.value_at(i) >= v.value_at(j):
        return v
    # v_i < v_j, so each mask holds at most one of the two bits: swap it
    swap = 1 << (i - 1) | 1 << (j - 1)
    pos = v.pos ^ swap if v.pos & swap else v.pos
    neg = v.neg ^ swap if v.neg & swap else v.neg
    return SignedVector(v.dim, pos, neg)


def _potential(v: SignedVector) -> int:
    """sum_i i * v_i, which the (i <- j)-shift lowers by (j - i)(v_j - v_i) when it moves v."""
    return sum(v.pos_support()) - sum(v.neg_support())


def shift_images(pos: int, neg: int, full: int) -> list[tuple[int, int]]:
    """(pos, neg) masks of every single-shift image of a vector other than itself.

    full has one bit per coordinate.  A shift at i < j changes the
    vector exactly when v_i < v_j: a +1 at j swaps with a 0 or -1 at i,
    or a 0 at j swaps with a -1 at i.
    """
    out = []
    for bj in bits(pos):
        for bi in bits(~pos & (bj - 1)):
            swap = bi | bj
            out.append((pos ^ swap, neg ^ swap if neg & bi else neg))
    for bj in bits(full & ~(pos | neg)):
        for bi in bits(neg & (bj - 1)):
            out.append((pos, neg ^ bi ^ bj))
    return out


def shift_order(members: Sequence[SignedVector]) -> list[int]:
    """Indices by ascending _potential, index on ties: a linear extension of the shift order."""
    return sorted(range(len(members)), key=lambda i: _potential(members[i]))


def shift_closure(members: Sequence[SignedVector]) -> tuple[list[int], list[int]]:
    """Closure of the shift order on a full class given in shift_order's order.

    pred[r] has bit s when members[s] is reachable from members[r] by
    shifts, s != r; succ is its transpose.  Every image ranks below its
    source, so pred is filled in rank order from the single-shift images,
    succ in reverse rank order from the preimages, which are the negated
    images of the negated vector.
    """
    n = len(members)
    rank = {(v.pos, v.neg): r for r, v in enumerate(members)}
    full = (1 << members[0].dim) - 1
    pred = [0] * n
    for r, v in enumerate(members):
        mask = 0
        for key in shift_images(v.pos, v.neg, full):
            s = rank[key]
            mask |= pred[s] | (1 << s)
        pred[r] = mask
    succ = [0] * n
    for r in range(n - 1, -1, -1):
        v = members[r]
        mask = 0
        for neg, pos in shift_images(v.neg, v.pos, full):
            s = rank[(pos, neg)]
            mask |= succ[s] | (1 << s)
        succ[r] = mask
    return pred, succ


def precedes(v: SignedVector, w: SignedVector) -> bool:
    """Fast reachability test: is v obtainable from w by shifts?

    Characterization used: the coordinate multisets agree, and for every
    prefix [1, p] and both thresholds c in {0, 1} the count of
    coordinates >= c in v dominates the count in w.  Validated against
    the breadth-first oracle.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    if v.k != w.k or v.l != w.l:
        return False
    plus_v = plus_w = nonneg_v = nonneg_w = 0
    for p in range(1, v.dim + 1):
        bit = 1 << (p - 1)
        if v.pos & bit:
            plus_v += 1
        if w.pos & bit:
            plus_w += 1
        if not v.neg & bit:
            nonneg_v += 1
        if not w.neg & bit:
            nonneg_w += 1
        if plus_v < plus_w or nonneg_v < nonneg_w:
            return False
    return True


def precedes_oracle(v: SignedVector, w: SignedVector) -> bool:
    """Ground-truth reachability by breadth-first search over shift images.

    Exhaustive and slow; guarded to dimension <= 8.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    if v.dim > _ORACLE_DIM_CAP:
        raise ValueError(f"oracle limited to dimension {_ORACLE_DIM_CAP}, got {v.dim}")
    if v == w:
        return True
    moves = list(combinations(range(1, w.dim + 1), 2))
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for i, j in moves:
                img = shift_ij(u, i, j)
                if img not in seen:
                    if img == v:
                        return True
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return False


def is_shifted(fam: VectorFamily) -> bool:
    """True when every single-shift image of every member is itself a member."""
    members = fam.member_set()
    moves = list(combinations(range(1, fam.profile.n + 1), 2))
    return all(shift_ij(v, i, j) in members for v in fam for i, j in moves)


def compress(fam: VectorFamily) -> VectorFamily:
    """Shift the whole family to a fixpoint; preserves cardinality.

    One pass for a shift S at i < j replaces each member v by S(v) unless
    S(v) is already present.  Shifts are scanned in lexicographic order
    and the scan restarts after any change.  Each replacement lowers
    _potential(v) by (j - i)(v_j - v_i) > 0, so the family's total
    _potential strictly decreases; it is bounded below, so compression
    ends, at a shifted family.

    Compression keeps every product floor: if all products in F are at
    least s, so are all products in the compressed family (Frankl's
    compression argument).  Take v that S moves and w in F.  If w moves
    too, S(v).S(w) = v.w.  If w does not move because w_i >= w_j,
    S(v).w - v.w = (v_j - v_i)(w_i - w_j) >= 0.  If w stays because S(w)
    is in F already, S(v).w = v.S(w).  g asks every product to be at
    least 1 - 2l, since -2l is the least product in a class, and m asks
    at least 0; so for both targets some optimum is shifted, and the
    solver searches shift-closed families only.
    """
    members = set(fam.member_set())
    moves = list(combinations(range(1, fam.profile.n + 1), 2))
    changed = True
    while changed:
        changed = False
        for i, j in moves:
            replacements = []
            for v in members:
                img = shift_ij(v, i, j)
                if img != v and img not in members:
                    replacements.append((v, img))
            if replacements:
                for v, img in replacements:
                    members.remove(v)
                    members.add(img)
                changed = True
                break
    return VectorFamily(fam.profile, members)
